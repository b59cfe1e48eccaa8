package tb_test

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"cbs/internal/core"
	"cbs/internal/operator"
	"cbs/internal/qep"
	"cbs/internal/soa"
	"cbs/internal/tb"
)

// tbOptions returns solver options sized for tiny TB problems: the moment
// space Nrh*Nmm must not exceed N, and the defaults (16*8) are built for
// FD grids.
func tbOptions(nrh, nmm int) core.Options {
	o := core.DefaultOptions()
	o.Nrh = nrh
	o.Nmm = nmm
	return o
}

// expectedChainLambdas returns the annulus Bloch factors of the nc-site
// chain supercell at energy e: the primitive roots mu of
// mu + 1/mu = (E - eps)/t fold into lambda = mu^{+-nc}, and only those with
// lambdaMin < |lambda| < 1/lambdaMin are visible to the contour.
func expectedChainLambdas(eps, t, e float64, nc int, lambdaMin float64) []complex128 {
	in, out := tb.ChainRoots(eps, t, e)
	var ls []complex128
	for _, mu := range []complex128{in, out} {
		l := cmplx.Pow(mu, complex(float64(nc), 0))
		if r := cmplx.Abs(l); r > lambdaMin && r < 1/lambdaMin {
			ls = append(ls, l)
		}
	}
	return ls
}

// matchLambdas checks that got and want agree as multisets to within tol.
func matchLambdas(t *testing.T, got []core.Eigenpair, want []complex128, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("found %d annulus eigenpairs, analytic dispersion gives %d", len(got), len(want))
	}
	used := make([]bool, len(want))
	for _, p := range got {
		best, bestD := -1, math.Inf(1)
		for j, w := range want {
			if used[j] {
				continue
			}
			if d := cmplx.Abs(p.Lambda-w) / cmplx.Abs(w); d < bestD {
				best, bestD = j, d
			}
		}
		if best < 0 || bestD > tol {
			t.Fatalf("lambda %v matches no analytic root (best mismatch %.3g, want one of %v)", p.Lambda, bestD, want)
		}
		used[best] = true
	}
}

func TestChainBlockedAppliesMatchReference(t *testing.T) {
	b, err := tb.NewChain(tb.ChainConfig{Sites: 7, Onsite: 0.3, Hopping: -1.1, A: 7})
	if err != nil {
		t.Fatal(err)
	}
	checkBackendConsistency(t, b)
}

func TestSlabBlockedAppliesMatchReference(t *testing.T) {
	b, err := tb.NewSlab(tb.SlabConfig{Nx: 3, Ny: 2, Onsite: -0.2, Hopping: 0.7, A: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	checkBackendConsistency(t, b)
}

// checkBackendConsistency verifies the blocked plane applies against the
// single-vector applies (operator.Vectors, one-column planes) and the
// structural identities the dual contour needs: H0 = H0^dagger and
// H- = H+^dagger.
func checkBackendConsistency(t *testing.T, b *tb.Backend) {
	t.Helper()
	n := b.N()
	x := operator.NewVectors(b)
	rng := rand.New(rand.NewSource(7))
	randVec := func() []complex128 {
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return v
	}
	dot := func(u, v []complex128) complex128 {
		var s complex128
		for i := range u {
			s += cmplx.Conj(u[i]) * v[i]
		}
		return s
	}
	u, v := randVec(), randVec()
	h0v, hpv, hmv := make([]complex128, n), make([]complex128, n), make([]complex128, n)
	h0u, hpu, hmu := make([]complex128, n), make([]complex128, n), make([]complex128, n)
	x.H0(v, h0v)
	x.Hp(v, hpv)
	x.Hm(v, hmv)
	x.H0(u, h0u)
	x.Hp(u, hpu)
	x.Hm(u, hmu)
	if d := cmplx.Abs(dot(u, h0v) - cmplx.Conj(dot(v, h0u))); d > 1e-12 {
		t.Errorf("H0 not hermitian: defect %g", d)
	}
	if d := cmplx.Abs(dot(u, hpv) - cmplx.Conj(dot(v, hmu))); d > 1e-12 {
		t.Errorf("H- != H+^dagger: defect %g", d)
	}

	const nb = 3
	vb := soa.NewBlock[float64](n, nb)
	for i := range vb.Re {
		vb.Re[i], vb.Im[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	const shift = 0.37
	coefP := complex(0.4, -1.2)
	coefM := complex(-0.9, 0.3)
	out := soa.NewBlock[float64](n, nb)
	b.ApplyShiftedH0Planes(shift, vb, out)
	b.AccumHpPlanes(real(coefP), imag(coefP), vb, out)
	b.AccumHmPlanes(real(coefM), imag(coefM), vb, out)
	for c := 0; c < nb; c++ {
		vc := make([]complex128, n)
		for i := range vc {
			vc[i] = complex(vb.Re[i*nb+c], vb.Im[i*nb+c])
		}
		want := make([]complex128, n)
		tmp := make([]complex128, n)
		x.H0(vc, tmp)
		for i := range want {
			want[i] = complex(shift, 0)*vc[i] - tmp[i]
		}
		x.Hp(vc, tmp)
		for i := range want {
			want[i] += coefP * tmp[i]
		}
		x.Hm(vc, tmp)
		for i := range want {
			want[i] += coefM * tmp[i]
		}
		for i := range want {
			if g := complex(out.Re[i*nb+c], out.Im[i*nb+c]); cmplx.Abs(g-want[i]) > 1e-12 {
				t.Fatalf("blocked apply col %d row %d: got %v want %v", c, i, g, want[i])
			}
		}
	}
}

// TestPlaneAppliesMatchInterleaved: the plane kernels reproduce the
// single-vector applies (operator.Vectors) on interleaved complex128
// vectors column by column — (shift - H0)V against shift*v - H0 v,
// prior + coef*H±V against prior + coef*(H± v), to 1e-13 per element (the
// coefficient enters per hop in the plane kernels, once per vector in the
// reference) — on chains and slabs, on every block width the solver hands
// them, and allocate nothing.
func TestPlaneAppliesMatchInterleaved(t *testing.T) {
	chain, err := tb.NewChain(tb.ChainConfig{Sites: 7, Onsite: 0.3, Hopping: -1.1, A: 7})
	if err != nil {
		t.Fatal(err)
	}
	slab, err := tb.NewSlab(tb.SlabConfig{Nx: 8, Ny: 7, Onsite: -0.2, Hopping: 0.7, A: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	const shift, tol = 0.37, 1e-13
	coefP := complex(0.4, -1.2)
	coefM := complex(-0.9, 0.3)
	for _, b := range []*tb.Backend{chain, slab} {
		n := b.N()
		x := operator.NewVectors(b)
		ref := make([]complex128, n)
		for _, nb := range []int{1, 2, 3, 4, 5, 7, 8, 16, 17} {
			rng := rand.New(rand.NewSource(int64(n*100 + nb)))
			vb, pb, ob := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
			for i := range vb.Re {
				vb.Re[i], vb.Im[i] = rng.NormFloat64(), rng.NormFloat64()
				pb.Re[i], pb.Im[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			col := func(blk *soa.Block[float64], c int) []complex128 {
				out := make([]complex128, n)
				for i := range out {
					out[i] = complex(blk.Re[i*nb+c], blk.Im[i*nb+c])
				}
				return out
			}
			for _, k := range []struct {
				name   string
				want   func(v, prior []complex128) []complex128
				planes func()
			}{
				{"ShiftedH0", func(v, _ []complex128) []complex128 {
					x.H0(v, ref)
					for i := range v {
						v[i] = complex(shift, 0)*v[i] - ref[i]
					}
					return v
				}, func() { b.ApplyShiftedH0Planes(shift, vb, ob) }},
				{"AccumHp", func(v, prior []complex128) []complex128 {
					x.Hp(v, ref)
					for i := range prior {
						prior[i] += coefP * ref[i]
					}
					return prior
				}, func() { b.AccumHpPlanes(real(coefP), imag(coefP), vb, ob) }},
				{"AccumHm", func(v, prior []complex128) []complex128 {
					x.Hm(v, ref)
					for i := range prior {
						prior[i] += coefM * ref[i]
					}
					return prior
				}, func() { b.AccumHmPlanes(real(coefM), imag(coefM), vb, ob) }},
			} {
				copy(ob.Re, pb.Re)
				copy(ob.Im, pb.Im)
				k.planes()
				for c := 0; c < nb; c++ {
					want := k.want(col(vb, c), col(pb, c))
					for i, g := range col(ob, c) {
						if cmplx.Abs(g-want[i]) > tol {
							t.Fatalf("%s n=%d nb=%d: col %d row %d planes %v, per column %v", k.name, n, nb, c, i, g, want[i])
						}
					}
				}
				if allocs := testing.AllocsPerRun(5, k.planes); allocs != 0 {
					t.Errorf("%s n=%d nb=%d: %.0f allocations per call, want 0", k.name, n, nb, allocs)
				}
			}
		}
	}
}

// TestChainRealBandsOnShell pins the SS solver against the analytic chain
// dispersion inside the band: at an on-shell energy the two annulus Bloch
// factors are exactly mu^{+-nc} with mu = e^{ikd} from
// E = eps + 2 t cos(k d).
func TestChainRealBandsOnShell(t *testing.T) {
	const (
		nc  = 8
		eps = 0.0
		th  = -1.0
		a   = 8.0 // cell length; site spacing d = 1
	)
	b, err := tb.NewChain(tb.ChainConfig{Sites: nc, Onsite: eps, Hopping: th, A: a})
	if err != nil {
		t.Fatal(err)
	}
	opts := tbOptions(2, 4)
	for _, e := range []float64{0.5, -1.3, 1.9} {
		r, err := core.Solve(qep.NewBackend(b, e), opts)
		if err != nil {
			t.Fatalf("E=%g: %v", e, err)
		}
		want := expectedChainLambdas(eps, th, e, nc, opts.LambdaMin)
		matchLambdas(t, r.Pairs, want, 1e-6)
		for _, p := range r.Pairs {
			if math.Abs(cmplx.Abs(p.Lambda)-1) > 1e-6 {
				t.Errorf("E=%g in band: |lambda| = %g, want 1 (propagating)", e, cmplx.Abs(p.Lambda))
			}
			// On-shell: the analytic dispersion evaluated at the solved
			// complex k reproduces E (k is the supercell wave vector, so the
			// primitive-cell dispersion uses d = a/nc and the folded branch;
			// checking through mu avoids the branch ambiguity).
			in, out := tb.ChainRoots(eps, th, e)
			for _, mu := range []complex128{in, out} {
				d := a / nc
				ed := tb.ChainDispersion(eps, th, qep.KFromLambda(mu, d), d)
				if cmplx.Abs(ed-complex(e, 0)) > 1e-9 {
					t.Errorf("dispersion oracle broken at E=%g: got %v", e, ed)
				}
			}
		}
	}
}

// TestChainComplexBandsInGap pins the evanescent branch: just above the
// band edge the closed-form roots of lambda + 1/lambda = (E - eps)/t are
// complex with |lambda| != 1, and the solver must recover the decaying /
// growing pair mu^{+-nc}.
func TestChainComplexBandsInGap(t *testing.T) {
	const (
		nc  = 8
		eps = 0.0
		th  = -1.0
		a   = 8.0
	)
	b, err := tb.NewChain(tb.ChainConfig{Sites: nc, Onsite: eps, Hopping: th, A: a})
	if err != nil {
		t.Fatal(err)
	}
	opts := tbOptions(2, 4)
	e := 2.002 // band top is eps - 2t = 2; evanescent just above
	r, err := core.Solve(qep.NewBackend(b, e), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedChainLambdas(eps, th, e, nc, opts.LambdaMin)
	if len(want) != 2 {
		t.Fatalf("test setup: expected 2 annulus roots, analytic gives %d", len(want))
	}
	matchLambdas(t, r.Pairs, want, 1e-6)
	for _, p := range r.Pairs {
		if math.Abs(cmplx.Abs(p.Lambda)-1) < 1e-3 {
			t.Errorf("gap energy: |lambda| = %g should be off the unit circle", cmplx.Abs(p.Lambda))
		}
		if math.Abs(imag(p.K)) < 1e-6 {
			t.Errorf("gap energy: Im k = %g, want nonzero decay", imag(p.K))
		}
	}
}

// TestSlabModesAgainstAnalytic checks the slab backend: every hard-wall
// transverse mode disperses as an independent chain with shifted onsite
// energy, so the annulus spectrum is the union of the per-mode chain roots.
func TestSlabModesAgainstAnalytic(t *testing.T) {
	cfg := tb.SlabConfig{Nx: 3, Ny: 2, Onsite: 0, Hopping: -1, A: 1}
	b, err := tb.NewSlab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := tbOptions(2, 3)
	opts.Nint = 48 // sharpen the contour filter against just-outside roots
	e := -3.3      // one propagating + one evanescent mode pair in the annulus
	r, err := core.Solve(qep.NewBackend(b, e), opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []complex128
	for _, em := range tb.SlabModeEnergies(cfg) {
		want = append(want, expectedChainLambdas(em, cfg.Hopping, e, 1, opts.LambdaMin)...)
	}
	matchLambdas(t, r.Pairs, want, 1e-5)
}
