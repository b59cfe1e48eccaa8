package negf_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cbs/internal/chaos"
	"cbs/internal/core"
	"cbs/internal/negf"
	"cbs/internal/qep"
	"cbs/internal/soa"
	"cbs/internal/sweep"
	"cbs/internal/tb"
	"cbs/internal/zlinalg"
)

func chainBackend(t *testing.T, sites int) *tb.Backend {
	t.Helper()
	b, err := tb.NewChain(tb.ChainConfig{Sites: sites, Onsite: 0, Hopping: -1, A: float64(sites)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func solveFunc(b *tb.Backend) sweep.SolveFunc {
	return func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		return core.SolveContext(ctx, qep.NewBackend(b, e), opts)
	}
}

func chainOptions() core.Options {
	o := core.DefaultOptions()
	o.Nrh = 2
	o.Nmm = 2
	return o
}

func solveAt(t *testing.T, b *tb.Backend, e float64, opts core.Options) *core.Result {
	t.Helper()
	r, err := core.Solve(qep.NewBackend(b, e), opts)
	if err != nil {
		t.Fatalf("solve at E=%g: %v", e, err)
	}
	return r
}

// TestChainSelfEnergyAnalytic pins the wave-matching construction against
// the exact chain answer: with H+ = t e_{N-1} e_0^T and the right-moving
// primitive root mu, the surface self-energy is Sigma_R = t mu
// e_{N-1} e_{N-1}^T — which requires the lambda -> 0 basis completion to
// be the null space of H-, not any orthogonal complement.
func TestChainSelfEnergyAnalytic(t *testing.T) {
	const nc = 4
	b := chainBackend(t, nc)
	e := 0.5 // in band
	r := solveAt(t, b, e, chainOptions())
	leads, err := negf.LeadSelfEnergies(b, r, negf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if leads.NOpen != 1 {
		t.Fatalf("NOpen = %d, want 1", leads.NOpen)
	}
	if leads.NFill != 0 {
		t.Fatalf("NFill = %d: chain completion must be exact (null spaces cover it)", leads.NFill)
	}
	// Right-moving root: v = -2d t Im mu > 0 with t = -1 means Im mu > 0.
	in, out := tb.ChainRoots(0, -1, e)
	mu := in
	if imag(mu) < 0 {
		mu = out
	}
	want := complex(-1, 0) * mu // t * mu
	n := b.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			expect := complex(0, 0)
			if i == n-1 && j == n-1 {
				expect = want
			}
			if cmplx.Abs(leads.SigmaR.At(i, j)-expect) > 1e-8 {
				t.Fatalf("SigmaR[%d][%d] = %v, want %v", i, j, leads.SigmaR.At(i, j), expect)
			}
		}
	}
	// The left self-energy mirrors it on site 0: the left-moving root is
	// mu_L = 1/mu, and site N-1 of the lead cell relates to device site 0
	// by mu_L^{-1} = mu, so Sigma_L[0][0] = t mu as well (both retarded:
	// Im Sigma < 0).
	if d := cmplx.Abs(leads.SigmaL.At(0, 0) - want); d > 1e-8 {
		t.Fatalf("SigmaL[0][0] = %v, want %v", leads.SigmaL.At(0, 0), want)
	}
	if imag(leads.SigmaL.At(0, 0)) >= 0 || imag(leads.SigmaR.At(n-1, n-1)) >= 0 {
		t.Fatal("self-energies are not retarded (Im Sigma must be negative in the band)")
	}
}

// TestUniformChainQuantizedTransmission: a pristine chain device between
// identical chain leads is ballistic — T(E) is exactly the open-channel
// count: 1 inside the band, 0 in the gap.
func TestUniformChainQuantizedTransmission(t *testing.T) {
	b := chainBackend(t, 4)
	opts := chainOptions()
	dev := negf.Device{Cells: 3}
	for _, tc := range []struct {
		e    float64
		want float64
	}{
		{0.0, 1}, {0.7, 1}, {-1.5, 1}, {1.9, 1},
		{2.002, 0}, // gap, evanescent pair in the annulus
		{2.5, 0},   // deep gap, annulus empty
	} {
		r := solveAt(t, b, tc.e, opts)
		leads, err := negf.LeadSelfEnergies(b, r, negf.Options{})
		if err != nil {
			t.Fatalf("E=%g: %v", tc.e, err)
		}
		got, err := negf.Transmission(b, r, dev, leads, negf.Options{})
		if err != nil {
			t.Fatalf("E=%g: %v", tc.e, err)
		}
		if math.Abs(got-tc.want) > 1e-6 {
			t.Errorf("T(%g) = %g, want %g", tc.e, got, tc.want)
		}
	}
}

// TestSlabTransmissionMultiOrbital exercises the matrix-valued self-energy
// path: a 2x2 slab with one open transverse mode transmits exactly 1
// through a pristine device, with the deep-evanescent modes handled by the
// orthogonal fill (they carry no current, so the O(lambda_min) fill error
// cannot touch T).
func TestSlabTransmissionMultiOrbital(t *testing.T) {
	b, err := tb.NewSlab(tb.SlabConfig{Nx: 2, Ny: 2, Onsite: 0, Hopping: -1, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := chainOptions() // Nrh*Nmm = 4 = N
	opts.Nint = 64         // sharpen the contour filter against just-outside roots
	e := -3.0              // only the lowest transverse mode is open
	r := solveAt(t, b, e, opts)
	leads, err := negf.LeadSelfEnergies(b, r, negf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if leads.NOpen != 1 {
		t.Fatalf("NOpen = %d, want 1", leads.NOpen)
	}
	got, err := negf.Transmission(b, r, negf.Device{Cells: 3}, leads, negf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-6 {
		t.Errorf("T = %g, want 1", got)
	}
}

// TestBarrierChainTunneling: a square barrier in the device attenuates the
// open channel below 1, and thickening the barrier by one cell multiplies
// T by |mu_barrier|^{2 nc} — the decay constant of the complex band inside
// the barrier, exactly the beta(E) the decay profile reports for the
// shifted chain.
func TestBarrierChainTunneling(t *testing.T) {
	const (
		nc = 4
		vb = 3.0
		e  = 0.3
	)
	b := chainBackend(t, nc)
	opts := chainOptions()
	r := solveAt(t, b, e, opts)
	leads, err := negf.LeadSelfEnergies(b, r, negf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tAt := func(barrierCells int) float64 {
		cells := barrierCells + 2
		barrier := make([]float64, cells)
		for i := 1; i <= barrierCells; i++ {
			barrier[i] = vb
		}
		got, err := negf.Transmission(b, r, negf.Device{Cells: cells, Barrier: barrier}, leads, negf.Options{})
		if err != nil {
			t.Fatalf("barrier %d cells: %v", barrierCells, err)
		}
		return got
	}
	t1, t2 := tAt(1), tAt(2)
	if !(t1 > 0 && t1 < 1) || !(t2 > 0 && t2 < t1) {
		t.Fatalf("tunneling not sub-unity/decreasing: T1=%g T2=%g", t1, t2)
	}
	// Complex band inside the barrier: the chain at shifted onsite vb.
	muB, _ := tb.ChainRoots(vb, -1, e)
	wantLog := 2 * float64(nc) * math.Log(cmplx.Abs(muB))
	gotLog := math.Log(t2 / t1)
	if math.Abs(gotLog-wantLog) > 0.05*math.Abs(wantLog) {
		t.Errorf("barrier decay: ln(T2/T1) = %g, analytic complex band gives %g", gotLog, wantLog)
	}
}

// TestTransmissionSweepAndLandauer runs the batched pipeline end to end:
// plateaus inside the band, zero in the gap, and a zero-temperature
// Landauer integral matching the analytic (1/pi) * V * T of the plateau.
func TestTransmissionSweepAndLandauer(t *testing.T) {
	b := chainBackend(t, 4)
	var es []float64
	for e := -0.5; e <= 0.501; e += 0.1 {
		es = append(es, e)
	}
	spec := negf.Spec{Energies: es, Device: negf.Device{Cells: 2}}
	curve, err := negf.TransmissionSweep(context.Background(), b, solveFunc(b), spec, chainOptions(), sweep.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.OK()) != len(es) {
		t.Fatalf("%d of %d energies transmitted", len(curve.OK()), len(es))
	}
	for _, p := range curve.Points {
		if math.Abs(p.T-1) > 1e-6 || p.NOpen != 1 {
			t.Errorf("E=%g: T=%g NOpen=%d, want plateau at 1", p.E, p.T, p.NOpen)
		}
	}
	iv := negf.LandauerIV(curve.Points, negf.BiasSpec{EFermi: 0, KT: 0, Biases: []float64{0, 0.4}})
	if len(iv) != 2 {
		t.Fatalf("IV points: %d", len(iv))
	}
	if iv[0].I != 0 {
		t.Errorf("I(0) = %g, want 0", iv[0].I)
	}
	want := 0.4 / math.Pi
	if math.Abs(iv[1].I-want) > 1e-6 {
		t.Errorf("I(0.4) = %g, want %g", iv[1].I, want)
	}
}

// chaosSeed reads the negf-smoke seed matrix (CBS_CHAOS_SEED, default 1),
// so the CI job exercises several deterministic fault patterns with one
// test body.
func chaosSeed() int64 {
	if s := os.Getenv("CBS_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 1
}

// TestTransportChaosMatrix drives the negf.selfenergy chaos site through
// the pipeline: hit energies must fail with the typed injected error while
// the rest of the curve completes, and the decisions must be deterministic
// per seed. The injector seed derives from CBS_CHAOS_SEED so each matrix
// entry faults a different subset of energies; because a given seed can
// legitimately hit all or none of the five energies, the test scans
// forward deterministically for a mixed pattern rather than flaking.
func TestTransportChaosMatrix(t *testing.T) {
	b := chainBackend(t, 4)
	es := []float64{-0.4, -0.2, 0.0, 0.2, 0.4}
	run := func(seed int64) *negf.Curve {
		spec := negf.Spec{
			Energies: es,
			Device:   negf.Device{Cells: 2},
			Chaos:    chaos.New(seed, chaos.Config{NEGFFault: 0.5}),
		}
		curve, err := negf.TransmissionSweep(context.Background(), b, solveFunc(b), spec, chainOptions(), sweep.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return curve
	}
	countFailed := func(c *negf.Curve) int {
		n := 0
		for _, p := range c.Points {
			if p.Status == negf.PointFailed {
				n++
			}
		}
		return n
	}
	// Scan from the matrix base seed for a pattern that is a genuine mix of
	// hit and clean energies (a handful of tries always suffices at rate
	// 0.5 over five energies, and the scan itself is deterministic).
	base := 100*chaosSeed() + 7
	seed := base
	var c1 *negf.Curve
	for ; seed < base+32; seed++ {
		c1 = run(seed)
		if f := countFailed(c1); f > 0 && f < len(es) {
			break
		}
	}
	failed := countFailed(c1)
	if failed == 0 || failed == len(es) {
		t.Fatalf("no mixed fault pattern in seeds [%d,%d)", base, base+32)
	}
	c2 := run(seed)
	for i, p := range c1.Points {
		if p.Status != c2.Points[i].Status || p.Err != c2.Points[i].Err {
			t.Fatalf("chaos not deterministic at E=%g: %+v vs %+v", p.E, p, c2.Points[i])
		}
		switch p.Status {
		case negf.PointFailed:
			if !strings.Contains(p.Err, chaos.ErrInjected.Error()) {
				t.Errorf("E=%g failed without the injected sentinel: %s", p.E, p.Err)
			}
		case negf.PointOK:
			if math.Abs(p.T-1) > 1e-6 {
				t.Errorf("clean energy E=%g: T=%g", p.E, p.T)
			}
		}
	}
	// Some nearby seed flips a different subset — the site really keys its
	// decisions on the seed, not just the energy index.
	same := true
	for s := seed + 1; s < seed+32 && same; s++ {
		c3 := run(s)
		for i := range c1.Points {
			if c1.Points[i].Status != c3.Points[i].Status {
				same = false
			}
		}
	}
	if same {
		t.Error("31 neighboring seeds injected identical fault sets")
	}
}

// TestDeviceValidation covers the typed failure paths.
func TestDeviceValidation(t *testing.T) {
	if err := (negf.Device{Cells: 0}).Validate(); err == nil {
		t.Error("zero-cell device validated")
	}
	if err := (negf.Device{Cells: 2, Barrier: []float64{1}}).Validate(); err == nil {
		t.Error("mis-sized barrier validated")
	}
	b := chainBackend(t, 4)
	r := solveAt(t, b, 0.5, chainOptions())
	leads, err := negf.LeadSelfEnergies(b, r, negf.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := negf.Transmission(b, r, negf.Device{Cells: 0}, leads, negf.Options{}); err == nil {
		t.Error("transmission accepted invalid device")
	}
	// Over-complete mode set trips the typed basis error.
	r2 := solveAt(t, b, 0.5, chainOptions())
	for i := 0; i < 8; i++ {
		r2.Pairs = append(r2.Pairs, r2.Pairs[0])
	}
	if _, err := negf.LeadSelfEnergies(b, r2, negf.Options{}); !errors.Is(err, negf.ErrDeficientBasis) {
		t.Errorf("over-complete basis error = %v, want ErrDeficientBasis", err)
	}
}

// slabConfig is the 8x7 tight-binding slab of the transport benchmark;
// Nx != Ny lifts the transverse degeneracy.
var slabConfig = tb.SlabConfig{Nx: 8, Ny: 7, Onsite: 0, Hopping: -1, A: 1}

func slabBackend(t testing.TB) *tb.Backend {
	t.Helper()
	b, err := tb.NewSlab(slabConfig)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func slabOptions() core.Options {
	o := core.DefaultOptions()
	o.Nrh, o.Nmm = 8, 7
	return o
}

// slabOpen is the analytic open-channel count of the slab at e: the
// transverse modes whose cosine band contains e.
func slabOpen(e float64) int {
	n := 0
	for _, m := range tb.SlabModeEnergies(slabConfig) {
		if math.Abs(e-m) < 2*math.Abs(slabConfig.Hopping) {
			n++
		}
	}
	return n
}

// denseTransmission is the reference the block recursion is checked
// against: it assembles the whole (nd n) x (nd n) device matrix
// A = (E + i eta) I - H_device - Sigma, factors it, and reads G_{1,nd}
// off the solves against the last-block columns.
func denseTransmission(b *tb.Backend, e float64, dev negf.Device, leads *negf.Leads, eta float64) (float64, error) {
	n := b.N()
	nd := dev.Cells
	h0, hp, hm := negf.Blocks(b)
	dim := nd * n
	a := zlinalg.NewMatrix(dim, dim)
	z := complex(e, eta)
	for c := 0; c < nd; c++ {
		shift := 0.0
		if dev.Barrier != nil {
			shift = dev.Barrier[c]
		}
		r0 := c * n
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := -h0.At(i, j)
				if i == j {
					v += z - complex(shift, 0)
				}
				a.Set(r0+i, r0+j, v)
			}
		}
		if c+1 < nd {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					a.Set(r0+i, r0+n+j, -hp.At(i, j))
					a.Set(r0+n+i, r0+j, -hm.At(i, j))
				}
			}
		}
	}
	last := (nd - 1) * n
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, a.At(i, j)-leads.SigmaL.At(i, j))
			a.Set(last+i, last+j, a.At(last+i, last+j)-leads.SigmaR.At(i, j))
		}
	}
	lu, err := zlinalg.FactorLU(a)
	if err != nil {
		return 0, err
	}
	g1n := zlinalg.NewMatrix(n, n)
	rhs := make([]complex128, dim)
	for j := 0; j < n; j++ {
		rhs[last+j] = 1
		x := lu.SolveVec(rhs)
		for i := 0; i < n; i++ {
			g1n.Set(i, j, x[i])
		}
		rhs[last+j] = 0
	}
	m := zlinalg.Mul(zlinalg.Mul(leads.GammaL, g1n), zlinalg.Mul(leads.GammaR, g1n.ConjTranspose()))
	var tr complex128
	for i := 0; i < n; i++ {
		tr += m.At(i, i)
	}
	return real(tr), nil
}

// randomBarrier draws a per-cell onsite profile in [0, vmax).
func randomBarrier(rng *rand.Rand, cells int, vmax float64) []float64 {
	out := make([]float64, cells)
	for i := range out {
		out[i] = vmax * rng.Float64()
	}
	return out
}

// transportCase is one solved lead: a backend, an energy's CBS result and
// its self-energies.
type transportCase struct {
	name  string
	b     *tb.Backend
	r     *core.Result
	leads *negf.Leads
	vmax  float64 // barrier heights drawn from [0, vmax)
	// mirror maps site i of the cell to its mirror image along the
	// transport direction: M H0 M = H0 and M H+ M = H-.
	mirror []int
}

func transportCases(t *testing.T) []transportCase {
	t.Helper()
	var out []transportCase
	add := func(name string, b *tb.Backend, e float64, opts core.Options, vmax float64, mirror []int) {
		r := solveAt(t, b, e, opts)
		leads, err := negf.LeadSelfEnergies(b, r, negf.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, transportCase{name: name, b: b, r: r, leads: leads, vmax: vmax, mirror: mirror})
	}
	chain := chainBackend(t, 4)
	reversed := []int{3, 2, 1, 0} // the chain cell's sites run along z
	add("chain E=0.3", chain, 0.3, chainOptions(), 3, reversed)
	add("chain E=-1.2", chain, -1.2, chainOptions(), 2, reversed)
	slab := slabBackend(t)
	layer := make([]int, slab.N()) // the slab cell is one transverse layer
	for i := range layer {
		layer[i] = i
	}
	add("slab E=-5.3", slab, -5.3, slabOptions(), 0.5, layer)
	add("slab E=-4.9", slab, -4.9, slabOptions(), 0.5, layer)
	return out
}

// TestTransmissionMatchesDense checks the block recursion against the
// dense device LU for Cells 1-5 with random barrier profiles, on the chain
// and the 8x7 slab. Cells 1 puts Sigma_L and Sigma_R on the same block.
func TestTransmissionMatchesDense(t *testing.T) {
	const eta = 1e-9
	rng := rand.New(rand.NewSource(3))
	for _, tc := range transportCases(t) {
		for cells := 1; cells <= 5; cells++ {
			for trial := 0; trial < 3; trial++ {
				dev := negf.Device{Cells: cells}
				if trial > 0 {
					dev.Barrier = randomBarrier(rng, cells, tc.vmax)
				}
				got, err := negf.Transmission(tc.b, tc.r, dev, tc.leads, negf.Options{Eta: eta})
				if err != nil {
					t.Fatalf("%s cells %d: %v", tc.name, cells, err)
				}
				want, err := denseTransmission(tc.b, tc.r.Energy, dev, tc.leads, eta)
				if err != nil {
					t.Fatalf("%s cells %d: dense: %v", tc.name, cells, err)
				}
				if d := math.Abs(got - want); d > 1e-12*math.Abs(want) {
					t.Errorf("%s cells %d barrier %v: T = %.17g, dense %.17g (rel %.3g)",
						tc.name, cells, dev.Barrier, got, want, d/math.Abs(want))
				}
			}
		}
	}
}

// mirrored returns M s M for the site permutation M.
func mirrored(s *zlinalg.Matrix, m []int) *zlinalg.Matrix {
	out := zlinalg.NewMatrix(s.Rows, s.Cols)
	for i := range m {
		for j := range m {
			out.Set(m[i], m[j], s.At(i, j))
		}
	}
	return out
}

// swapLeads returns the leads of the mirrored device: the mirror image of
// Sigma_R attaches on the left and that of Sigma_L on the right.
func swapLeads(l *negf.Leads, m []int) *negf.Leads {
	s := *l
	s.SigmaL, s.SigmaR = mirrored(l.SigmaR, m), mirrored(l.SigmaL, m)
	s.GammaL, s.GammaR = mirrored(l.GammaR, m), mirrored(l.GammaL, m)
	return &s
}

// TestTransmissionPhysicalBounds checks two properties every transmission
// must have, on asymmetric barrier devices: 0 <= T <= NOpen, and lead-swap
// symmetry. Mirroring the whole device reverses the barrier profile and
// swaps the leads, and it maps T_LR onto T_RL, which current conservation
// makes equal; so T(barrier) with the leads as solved equals T(reversed
// barrier) with the mirrored leads swapped, whatever the accuracy of the
// lead modes. (With the leads left as solved, the two agree only to the
// accuracy of the CBS eigenvectors: about 1e-7 on the slab at the
// benchmark's solver options.)
func TestTransmissionPhysicalBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range transportCases(t) {
		h0, hp, hm := negf.Blocks(tc.b)
		if !reflect.DeepEqual(mirrored(h0, tc.mirror), h0) || !reflect.DeepEqual(mirrored(hp, tc.mirror), hm) {
			t.Fatalf("%s: the site map is not a mirror of the cell", tc.name)
		}
		swapped := swapLeads(tc.leads, tc.mirror)
		for cells := 1; cells <= 5; cells++ {
			for trial := 0; trial < 3; trial++ {
				barrier := randomBarrier(rng, cells, tc.vmax)
				reversed := make([]float64, cells)
				for i, v := range barrier {
					reversed[cells-1-i] = v
				}
				tf, err := negf.Transmission(tc.b, tc.r, negf.Device{Cells: cells, Barrier: barrier}, tc.leads, negf.Options{})
				if err != nil {
					t.Fatal(err)
				}
				tr, err := negf.Transmission(tc.b, tc.r, negf.Device{Cells: cells, Barrier: reversed}, swapped, negf.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if tf < 0 || tf > float64(tc.leads.NOpen)+1e-9 {
					t.Errorf("%s barrier %v: T = %g outside [0, NOpen = %d]", tc.name, barrier, tf, tc.leads.NOpen)
				}
				if d := math.Abs(tf - tr); d > 1e-9 {
					t.Errorf("%s barrier %v: T = %.12g, mirrored %.12g (|diff| %.3g)", tc.name, barrier, tf, tr, d)
				}
			}
		}
	}
}

// TestTransmissionSweepFanOutBitIdentical runs the pipeline with half the
// energies faulted at GOMAXPROCS 1 and 4, and at GOMAXPROCS 4 with the
// options split to a share of 1: the points — values, status and error
// text — must not depend on how many goroutines post-process them.
func TestTransmissionSweepFanOutBitIdentical(t *testing.T) {
	b := chainBackend(t, 4)
	var es []float64
	for e := -1.9; e < 2.3; e += 0.3 {
		es = append(es, e)
	}
	spec := negf.Spec{
		Energies: es,
		Device:   negf.Device{Cells: 3, Barrier: []float64{0.4, 1.1, 0.2}},
		Chaos:    chaos.New(100*chaosSeed()+11, chaos.Config{NEGFFault: 0.5}),
	}
	run := func(procs, split int) []negf.Point {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		opts := chainOptions()
		opts.Parallel = opts.Parallel.Split(split)
		curve, err := negf.TransmissionSweep(context.Background(), b, solveFunc(b), spec, opts, sweep.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return curve.Points
	}
	serial := run(1, 1)
	var ok, failed int
	for _, p := range serial {
		if p.Status == negf.PointOK {
			ok++
		} else {
			failed++
		}
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("fault pattern is not mixed: %d ok, %d failed", ok, failed)
	}
	for _, tc := range []struct{ procs, split int }{{4, 1}, {4, 4}} {
		fanned := run(tc.procs, tc.split)
		if !reflect.DeepEqual(serial, fanned) {
			for i := range serial {
				if !reflect.DeepEqual(serial[i], fanned[i]) {
					t.Errorf("point %d: GOMAXPROCS 1 %+v, GOMAXPROCS %d split %d %+v", i, serial[i], tc.procs, tc.split, fanned[i])
				}
			}
		}
	}
}

// cancelOnClassify wraps a backend and cancels a context on the first H+
// apply after the dense lead blocks are built — that is, inside the
// channel classification of the first post-processed energy. The dense
// blocks of a cell of at most 64 sites take one H+ plane apply.
type cancelOnClassify struct {
	*tb.Backend
	cancel context.CancelFunc
	calls  atomic.Int64
}

func (c *cancelOnClassify) AccumHpPlanes(coefRe, coefIm float64, v, out *soa.Block[float64]) {
	if c.calls.Add(1) > 1 {
		c.cancel()
	}
	c.Backend.AccumHpPlanes(coefRe, coefIm, v, out)
}

// TestTransmissionSweepCancelDuringPostProcessing cancels the context
// after the sweep, while the energies are being post-processed: the
// pipeline must return ctx.Err() and leave no goroutine behind.
func TestTransmissionSweepCancelDuringPostProcessing(t *testing.T) {
	raw := chainBackend(t, 4)
	es := []float64{-1.5, -1.0, -0.5, 0, 0.5, 1.0, 1.5}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			b := &cancelOnClassify{Backend: raw, cancel: cancel}
			before := runtime.NumGoroutine()
			curve, err := negf.TransmissionSweep(ctx, b, solveFunc(raw), negf.Spec{Energies: es, Device: negf.Device{Cells: 2}}, chainOptions(), sweep.Config{})
			if !errors.Is(err, context.Canceled) || curve != nil {
				t.Fatalf("got curve %v, err %v; want nil, context.Canceled", curve, err)
			}
			if b.calls.Load() <= 1 {
				t.Fatal("the context was never cancelled")
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines before, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// slabBenchCase solves the 8x7 slab once at an energy with two open
// channels and returns it with its self-energies.
func slabBenchCase(b *testing.B) (*tb.Backend, *core.Result, *negf.Leads) {
	be := slabBackend(b)
	r, err := core.Solve(qep.NewBackend(be, -5.3), slabOptions())
	if err != nil {
		b.Fatal(err)
	}
	leads, err := negf.LeadSelfEnergies(be, r, negf.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return be, r, leads
}

// BenchmarkLeadSelfEnergies times the wave matching of one energy on the
// 8x7 slab, lead blocks and null spaces included.
func BenchmarkLeadSelfEnergies(b *testing.B) {
	be, r, _ := slabBenchCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := negf.LeadSelfEnergies(be, r, negf.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransmission times T(E) of a 4-cell device on the 8x7 slab.
func BenchmarkTransmission(b *testing.B) {
	be, r, leads := slabBenchCase(b)
	dev := negf.Device{Cells: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := negf.Transmission(be, r, dev, leads, negf.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// warmBytesPerEnergy bounds the heap bytes one more slab energy costs a
// transmission curve whose post-processing runs on one goroutine, so on
// one warmed workspace: a tenth of the ~3 MB each energy allocated before
// the dense buffers moved into the workspace. What is left is the sweep's
// bookkeeping and the channel classification, sized by the result.
const warmBytesPerEnergy = 300_000

// TestTransmissionSweepWarmWorkspace post-processes solved slab energies
// through TransmissionSweep at a core share of 1: one goroutine whose
// workspace carries from energy to energy. Every point must have the bits
// of the exported LeadSelfEnergies and Transmission, which take a fresh
// workspace per call, and the curve's bytes must grow by at most
// warmBytesPerEnergy per energy.
func TestTransmissionSweepWarmWorkspace(t *testing.T) {
	b := slabBackend(t)
	es := []float64{-5.3, -4.9, -5.6, -5.1, -5.45, -4.95, -5.2, -5.0}
	results := make(map[float64]*core.Result, len(es))
	for _, e := range es {
		results[e] = solveAt(t, b, e, slabOptions())
	}
	solved := func(_ context.Context, e float64, _ core.Options) (*core.Result, error) {
		return results[e], nil
	}
	opts := slabOptions()
	opts.Parallel = opts.Parallel.Split(runtime.GOMAXPROCS(0))
	curve := func(n int) *negf.Curve {
		spec := negf.Spec{Energies: es[:n], Device: negf.Device{Cells: 4, Barrier: []float64{0, 0.1, 0.05, 0}}}
		c, err := negf.TransmissionSweep(context.Background(), b, solved, spec, opts, sweep.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	c := curve(len(es))
	for _, p := range c.Points {
		r := results[p.E]
		leads, err := negf.LeadSelfEnergies(b, r, negf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := negf.Transmission(b, r, negf.Device{Cells: 4, Barrier: []float64{0, 0.1, 0.05, 0}}, leads, negf.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Status != negf.PointOK || math.Float64bits(p.T) != math.Float64bits(want) ||
			p.NOpen != leads.NOpen || p.NFill != leads.NFill {
			t.Errorf("E=%g: curve point %+v, exported path T = %.17g, NOpen %d, NFill %d",
				p.E, p, want, leads.NOpen, leads.NFill)
		}
	}

	bytes := func(n int) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		curve(n)
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	half := len(es) / 2
	per := (bytes(len(es)) - bytes(half)) / int64(len(es)-half)
	if per > warmBytesPerEnergy {
		t.Errorf("one more energy costs the curve %d B, want at most %d", per, warmBytesPerEnergy)
	}
	t.Logf("one more energy costs the curve %d B", per)
}
