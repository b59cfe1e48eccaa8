// Ablation benchmarks for the design choices DESIGN.md calls out: the
// dual-system halving trick (Sec. 3.2), the majority early-stop rule
// (Sec. 3.3), and the ring-contour subtraction. Each ablation runs the same
// physical solve with the feature disabled and reports the cost or quality
// difference.
package cbs_test

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"cbs/internal/contour"
	"cbs/internal/hamiltonian"
	"cbs/internal/lattice"
	"cbs/internal/linsolve"
	"cbs/internal/operator"
	"cbs/internal/qep"
	"cbs/internal/soa"
	"cbs/internal/ssm"
	"cbs/internal/zlinalg"
)

// BenchmarkAblationDualTrick compares the dual BiCG (one Krylov run
// producing both P(z)^{-1}b and P(z)^{-dagger}b) against two independent
// BiCG runs -- the paper's factor-2 saving on the ring contour.
func BenchmarkAblationDualTrick(b *testing.B) {
	f := alFixture(b)
	ef := f.fermi(b)
	q := qep.NewBackend(f.model.Op, ef)
	vec := operator.NewVectors(q.B)
	n := q.Dim()
	ring, err := contour.NewRing(0.5, 8)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]complex128, n)
	for i := range rhs {
		rhs[i] = complex(float64((i*37)%101)/101-0.5, float64((i*61)%127)/127-0.5)
	}
	scratch1 := make([]complex128, n)
	scratch2 := make([]complex128, n)
	solveDual := func(z complex128) int {
		x := make([]complex128, n)
		xd := make([]complex128, n)
		apply := func(v, out []complex128) { q.Apply(vec, z, v, out, scratch1) }
		applyD := func(v, out []complex128) { q.ApplyDagger(vec, z, v, out, scratch2) }
		r := linsolve.BiCGDual(apply, applyD, rhs, rhs, x, xd, linsolve.Options{Tol: 1e-10})
		return r.MatVecApplied
	}
	solveSeparate := func(zOut, zIn complex128) int {
		total := 0
		for _, z := range []complex128{zOut, zIn} {
			zz := z
			x := make([]complex128, n)
			apply := func(v, out []complex128) { q.Apply(vec, zz, v, out, scratch1) }
			applyD := func(v, out []complex128) { q.ApplyDagger(vec, zz, v, out, scratch2) }
			r := linsolve.BiCG(apply, applyD, rhs, x, linsolve.Options{Tol: 1e-10})
			total += r.MatVecApplied
		}
		return total
	}
	var mvDual, mvSep int
	for i := 0; i < b.N; i++ {
		mvDual, mvSep = 0, 0
		for j := range ring.Outer {
			mvDual += solveDual(ring.Outer[j].Z)
			mvSep += solveSeparate(ring.Outer[j].Z, ring.Inner[j].Z)
		}
	}
	saving := float64(mvSep) / float64(mvDual)
	b.ReportMetric(saving, "matvec-saving")
	// The dual trick should cut the operator applications by about half.
	if saving < 1.5 {
		b.Fatalf("dual trick saved only %.2fx in matvecs; expected about 2x", saving)
	}
}

// BenchmarkAblationLoadBalanceStop measures the majority early-stop rule:
// total matvecs with and without it. The rule trades a bounded accuracy
// loss (the paper: stragglers reach ~1e-8 when half hit 1e-10) for better
// middle-layer load balance.
func BenchmarkAblationLoadBalanceStop(b *testing.B) {
	f := alFixture(b)
	ef := f.fermi(b)
	run := func(stop bool) (int, int) {
		opts := fastOpts()
		opts.LoadBalanceStop = stop
		res, err := f.model.SolveCBS(ef, opts)
		if err != nil {
			b.Fatal(err)
		}
		return res.MatVecs, len(res.Pairs)
	}
	var mvOn, mvOff, nOn, nOff int
	for i := 0; i < b.N; i++ {
		mvOff, nOff = run(false)
		mvOn, nOn = run(true)
	}
	b.ReportMetric(float64(mvOff)/float64(mvOn), "matvec-ratio-off/on")
	if nOn != nOff {
		// Not fatal -- the rule may drop marginal states -- but report it.
		b.Logf("states with stop: %d, without: %d", nOn, nOff)
	}
}

// BenchmarkAblationRingVsCircle demonstrates why the two-circle ring is
// required: a single outer circle encloses the z=0 pole of the QEP's
// Laurent form and the rapidly-decaying states, corrupting the moments. We
// measure the spurious-state rate of each contour on a scalar-decoupled
// problem with known roots.
func BenchmarkAblationRingVsCircle(b *testing.B) {
	n := 12
	e := 0.7
	h0 := make([]float64, n)
	hp := make([]complex128, n)
	for i := range h0 {
		h0[i] = float64((i*7)%10)/10 - 0.5
		hp[i] = complex(0.3+float64((i*3)%7)/10, float64((i*5)%9)/20-0.2)
	}
	pf := func(z complex128) (*zlinalg.Matrix, error) {
		m := zlinalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			m.Set(i, i, -cmplx.Conj(hp[i])/z+complex(e-h0[i], 0)-hp[i]*z)
		}
		return m, nil
	}
	ring, err := contour.NewRing(0.5, 32)
	if err != nil {
		b.Fatal(err)
	}
	circle, err := contour.Circle(0, 2.0, 64)
	if err != nil {
		b.Fatal(err)
	}
	countGood := func(pts []contour.Point) (found, spurious int) {
		res, err := ssm.SolveNonlinear(pf, n, pts, 8, ssm.Options{Nmm: 8, Delta: 1e-10}, 3)
		if err != nil {
			return 0, 99
		}
		kept := res.FilterByResidual(1e-6, ring.Contains)
		all := res.FilterByResidual(1e30, ring.Contains) // everything in annulus
		return len(kept.Lambdas), len(all.Lambdas) - len(kept.Lambdas)
	}
	var ringFound, ringSpur, circFound, circSpur int
	for i := 0; i < b.N; i++ {
		ringFound, ringSpur = countGood(ring.Points())
		circFound, circSpur = countGood(circle)
	}
	b.ReportMetric(float64(ringFound), "ring-found")
	b.ReportMetric(float64(ringSpur), "ring-spurious")
	b.ReportMetric(float64(circFound), "circle-found")
	b.ReportMetric(float64(circSpur), "circle-spurious")
	if ringSpur > circSpur {
		b.Fatalf("ring produced more spurious annulus states (%d) than the naive circle (%d)", ringSpur, circSpur)
	}
}

// BenchmarkAblationSVDThreshold sweeps the Hankel truncation delta: too
// loose keeps noise directions (spurious states), too tight discards true
// ones. The paper's 1e-10 sits on the plateau.
func BenchmarkAblationSVDThreshold(b *testing.B) {
	f := alFixture(b)
	ef := f.fermi(b)
	var plateau bool
	var n6, n10, n2 int
	for i := 0; i < b.N; i++ {
		count := func(delta float64) int {
			opts := fastOpts()
			opts.Delta = delta
			res, err := f.model.SolveCBS(ef, opts)
			if err != nil {
				b.Fatal(err)
			}
			return len(res.Pairs)
		}
		n6 = count(1e-6)
		n10 = count(1e-10)
		n2 = count(1e-2)
		plateau = n6 == n10
	}
	b.ReportMetric(float64(n2), "states-delta1e-2")
	b.ReportMetric(float64(n6), "states-delta1e-6")
	b.ReportMetric(float64(n10), "states-delta1e-10")
	if !plateau {
		b.Logf("delta sensitivity: 1e-6 -> %d states, 1e-10 -> %d states", n6, n10)
	}
	// An aggressive truncation must not find more states than the plateau.
	if n2 > n10 {
		b.Fatalf("delta=1e-2 found %d states vs %d at 1e-10", n2, n10)
	}
}

// storedBlocks is the explicitly stored alternative to the matrix-free
// operator that the paper's claim #1 is measured against: the kinetic and
// local parts of H0, H+ and H- compiled into soa.CSR tables (H0's diagonal
// kept apart for soa.ShiftedCSR), and the nonlocal term kept in its
// factored projector form — storing the outer products would square the
// projector supports, which no real code does.
type storedBlocks struct {
	op         *hamiltonian.Operator
	diag       []float64
	h0, hp, hm *soa.CSR
}

func compileBlocks(op *hamiltonian.Operator) *storedBlocks {
	g := op.G
	var h0, hp, hm []soa.CSREntry
	s := &storedBlocks{op: op, diag: make([]float64, op.N())}
	for iz := 0; iz < g.Nz; iz++ {
		for iy := 0; iy < g.Ny; iy++ {
			for ix := 0; ix < g.Nx; ix++ {
				row := g.Index(ix, iy, iz)
				s.diag[row] = op.Diag() + op.VLoc[row]
				for d := 1; d <= op.St.Nf; d++ {
					xp, xm := op.NeighborX(d)
					yp, ym := op.NeighborY(d)
					h0 = append(h0,
						soa.CSREntry{Row: row, Col: g.Index(int(xp[ix]), iy, iz), Val: op.Kx(d)},
						soa.CSREntry{Row: row, Col: g.Index(int(xm[ix]), iy, iz), Val: op.Kx(d)},
						soa.CSREntry{Row: row, Col: g.Index(ix, int(yp[iy]), iz), Val: op.Ky(d)},
						soa.CSREntry{Row: row, Col: g.Index(ix, int(ym[iy]), iz), Val: op.Ky(d)})
					if iz+d < g.Nz {
						h0 = append(h0, soa.CSREntry{Row: row, Col: g.Index(ix, iy, iz+d), Val: op.Kz(d)})
					} else {
						hp = append(hp, soa.CSREntry{Row: row, Col: g.Index(ix, iy, iz+d-g.Nz), Val: op.Kz(d)})
					}
					if iz-d >= 0 {
						h0 = append(h0, soa.CSREntry{Row: row, Col: g.Index(ix, iy, iz-d), Val: op.Kz(d)})
					} else {
						hm = append(hm, soa.CSREntry{Row: row, Col: g.Index(ix, iy, iz-d+g.Nz), Val: op.Kz(d)})
					}
				}
			}
		}
	}
	n := op.N()
	s.h0, s.hp, s.hm = soa.NewCSR(n, h0), soa.NewCSR(n, hp), soa.NewCSR(n, hm)
	return s
}

// memoryBytes counts the tables, H0's diagonal and the factored
// projectors.
func (s *storedBlocks) memoryBytes() int64 {
	b := s.h0.MemoryBytes() + s.hp.MemoryBytes() + s.hm.MemoryBytes() + int64(len(s.diag))*8
	for _, p := range s.op.Projs {
		for _, sp := range p.Supp {
			b += int64(len(sp.Idx))*4 + int64(len(sp.Val))*8
		}
	}
	return b
}

// shiftedH0 computes out = (shift - H0) V from the stored form.
func (s *storedBlocks) shiftedH0(shift float64, v, out *soa.Block[float64]) {
	soa.ShiftedCSR(out, v, shift, s.diag, s.h0)
	s.nonlocal(-1, 0, v, out, 0)
}

// accum computes out += coef H± V (l = +1 for H+, -1 for H-).
func (s *storedBlocks) accum(l int, coefRe, coefIm float64, v, out *soa.Block[float64]) {
	a := s.hp
	if l < 0 {
		a = s.hm
	}
	soa.AccumCSR(out, v, coefRe, coefIm, a)
	s.nonlocal(coefRe, coefIm, v, out, l)
}

// nonlocal accumulates out += coef sum_j p^j h <p^{j+l}, V>.
func (s *storedBlocks) nonlocal(coefRe, coefIm float64, v, out *soa.Block[float64], l int) {
	nb := v.NB()
	sumsRe, sumsIm := make([]float64, nb), make([]float64, nb)
	for _, p := range s.op.Projs {
		for j := -1; j <= 1; j++ {
			jc := j + l
			if jc < -1 || jc > 1 || len(p.Supp[j+1].Idx) == 0 || len(p.Supp[jc+1].Idx) == 0 {
				continue
			}
			soa.GatherDot(sumsRe, sumsIm, v, 0, p.Supp[jc+1].Idx, p.Supp[jc+1].Val)
			cr, ci := p.H*coefRe, p.H*coefIm
			for k := range sumsRe {
				sumsRe[k], sumsIm[k] = sumsRe[k]*cr-sumsIm[k]*ci, sumsRe[k]*ci+sumsIm[k]*cr
			}
			soa.ScatterAxpy(out, 0, p.Supp[j+1].Idx, p.Supp[j+1].Val, sumsRe, sumsIm)
		}
	}
}

func ablationOperator(t *testing.T) *hamiltonian.Operator {
	t.Helper()
	st, err := lattice.AlBulk100(1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := hamiltonian.Build(st, hamiltonian.Config{Nx: 6, Ny: 6, Nz: 8, Nf: 4})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestStoredMatchesMatrixFree: the stored form must reproduce the
// matrix-free plane applies of all three blocks to 1e-12 per element.
func TestStoredMatchesMatrixFree(t *testing.T) {
	op := ablationOperator(t)
	s := compileBlocks(op)
	const nb = 3
	n := op.N()
	rng := rand.New(rand.NewSource(1))
	v, prior := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
	for i := range v.Re {
		v.Re[i], v.Im[i] = rng.Float64()*2-1, rng.Float64()*2-1
		prior.Re[i], prior.Im[i] = rng.Float64()*2-1, rng.Float64()*2-1
	}
	for _, c := range []struct {
		name         string
		free, stored func(out *soa.Block[float64])
	}{
		{"H0", func(o *soa.Block[float64]) { op.ApplyShiftedH0Planes(0.3, v, o) },
			func(o *soa.Block[float64]) { s.shiftedH0(0.3, v, o) }},
		{"H+", func(o *soa.Block[float64]) { op.AccumHpPlanes(0.4, -1.2, v, o) },
			func(o *soa.Block[float64]) { s.accum(1, 0.4, -1.2, v, o) }},
		{"H-", func(o *soa.Block[float64]) { op.AccumHmPlanes(-0.9, 0.3, v, o) },
			func(o *soa.Block[float64]) { s.accum(-1, -0.9, 0.3, v, o) }},
	} {
		want, got := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
		for _, o := range []*soa.Block[float64]{want, got} {
			copy(o.Re, prior.Re)
			copy(o.Im, prior.Im)
		}
		c.free(want)
		c.stored(got)
		for i := range got.Re {
			if cmplx.Abs(complex(got.Re[i]-want.Re[i], got.Im[i]-want.Im[i])) > 1e-12 {
				t.Fatalf("%s: stored and matrix-free applies differ at %d: (%g, %g) vs (%g, %g)",
					c.name, i, got.Re[i], got.Im[i], want.Re[i], want.Im[i])
			}
		}
	}
}

// TestMatrixFreeMemoryAdvantage quantifies the paper's claim #1: the
// stored form costs substantially more memory than the matrix-free
// operator.
func TestMatrixFreeMemoryAdvantage(t *testing.T) {
	op := ablationOperator(t)
	stored, free := compileBlocks(op).memoryBytes(), op.MemoryBytes()
	// The 3D stencil alone stores 25 entries per row at 16 B each vs
	// 8 B/row of potential in the matrix-free form.
	if ratio := float64(stored) / float64(free); ratio < 3 {
		t.Errorf("stored/free memory ratio only %.1f (%d B vs %d B); expected the stencil storage to dominate", ratio, stored, free)
	}
}

// BenchmarkAblationMatrixFree measures the paper's claim #1 directly: the
// matrix-free operator against the explicitly stored form, in memory
// footprint and in the time of one H0 apply to one vector from each.
func BenchmarkAblationMatrixFree(b *testing.B) {
	f := alFixture(b)
	op := f.model.Op
	s := compileBlocks(op)
	n := op.N()
	v, out := soa.NewBlock[float64](n, 1), soa.NewBlock[float64](n, 1)
	for i := range v.Re {
		v.Re[i], v.Im[i] = float64((i*13)%97)/97, float64((i*29)%89)/89
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.ApplyShiftedH0Planes(0, v, out)
		s.shiftedH0(0, v, out)
	}
	b.ReportMetric(float64(s.memoryBytes())/float64(op.MemoryBytes()), "stored-vs-free-mem")
}
