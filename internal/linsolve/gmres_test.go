package linsolve

import (
	"math/rand"
	"testing"

	"cbs/internal/chaos"
	"cbs/internal/soa"
	"cbs/internal/zlinalg"
)

func residualNorm(a *zlinalg.Matrix, x, b []complex128) float64 {
	r := zlinalg.MulVec(a, x)
	for i := range r {
		r[i] -= b[i]
	}
	return zlinalg.Norm2(r) / zlinalg.Norm2(b)
}

func TestGMRESSolvesNonHermitianSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 40
	a := randDiagDominant(rng, n)
	b := randVec(rng, n)
	x := make([]complex128, n)
	res := GMRES(matApply(a), b, x, 0, Options{Tol: 1e-11})
	if !res.Converged {
		t.Fatalf("GMRES did not converge: %+v", res)
	}
	if nr := residualNorm(a, x, b); nr > 1e-10 {
		t.Errorf("residual %g", nr)
	}
	if res.MatVecApplied == 0 {
		t.Error("matvec counter not recorded")
	}
}

// TestGMRESRestartCycles: a short restart length still converges, just in
// more cycles (the fallback default must not depend on m >= n).
func TestGMRESRestartCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 50
	a := randDiagDominant(rng, n)
	b := randVec(rng, n)
	x := make([]complex128, n)
	res := GMRES(matApply(a), b, x, 5, Options{Tol: 1e-10, MaxIter: 2000})
	if !res.Converged {
		t.Fatalf("GMRES(5) did not converge: %+v", res)
	}
	if nr := residualNorm(a, x, b); nr > 1e-9 {
		t.Errorf("residual %g", nr)
	}
}

// TestGMRESIndefiniteSystem: GMRES must handle the indefinite shifted
// systems that break CG/BiCG — a shifted Laplacian with the shift inside
// the spectrum.
func TestGMRESIndefiniteSystem(t *testing.T) {
	n := 60
	a := zlinalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, complex(2.0-1.3, 0))
		if i > 0 {
			a.Set(i, i-1, -1)
			a.Set(i-1, i, -1)
		}
	}
	rng := rand.New(rand.NewSource(13))
	b := randVec(rng, n)
	x := make([]complex128, n)
	res := GMRES(matApply(a), b, x, 0, Options{Tol: 1e-10, MaxIter: 5000})
	if !res.Converged {
		t.Fatalf("GMRES failed on the indefinite system: %+v", res)
	}
	if nr := residualNorm(a, x, b); nr > 1e-8 {
		t.Errorf("residual %g", nr)
	}
}

func TestGMRESIterationCap(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 30
	a := randDiagDominant(rng, n)
	b := randVec(rng, n)
	x := make([]complex128, n)
	res := GMRES(matApply(a), b, x, 0, Options{Tol: 1e-30, MaxIter: 4})
	if res.Converged {
		t.Error("cannot converge to 1e-30 in 4 iterations")
	}
	if res.Iterations > 4 {
		t.Errorf("iterations %d exceed cap", res.Iterations)
	}
	if res.Breakdown || res.StoppedEarly {
		t.Errorf("capped GMRES must end as plain non-convergence, got %+v", res)
	}
}

// TestGMRESDualSolvesBothSystems: the fallback rung must preserve the
// primal/dual pairing of the ring contour.
func TestGMRESDualSolvesBothSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 35
	a := randDiagDominant(rng, n)
	ah := a.ConjTranspose()
	b := randVec(rng, n)
	bd := randVec(rng, n)
	x := make([]complex128, n)
	xd := make([]complex128, n)
	rp, rd := GMRESDual(matApply(a), matApply(ah), b, bd, x, xd, 0, Options{Tol: 1e-11})
	if !rp.Converged || !rd.Converged {
		t.Fatalf("GMRESDual did not converge: primal %+v dual %+v", rp, rd)
	}
	if nr := residualNorm(a, x, b); nr > 1e-10 {
		t.Errorf("primal residual %g", nr)
	}
	if nr := residualNorm(ah, xd, bd); nr > 1e-10 {
		t.Errorf("dual residual %g", nr)
	}
	if rp.MatVecApplied <= rd.MatVecApplied {
		t.Error("primal result must carry the combined matvec count")
	}
}

// TestInjectedBreakdownBiCGDual: a chaos injector targeting this site must
// force an immediate breakdown; the same solve with attempt=1 (restart
// rate 0) must heal.
func TestInjectedBreakdownBiCGDual(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 30
	a := randDiagDominant(rng, n)
	b := randVec(rng, n)
	inj := chaos.New(1, chaos.Config{Breakdown: 1})
	x := make([]complex128, n)
	xd := make([]complex128, n)
	res := BiCGDual(matApply(a), matApply(a.ConjTranspose()), b, b, x, xd,
		Options{Tol: 1e-11, Chaos: inj, ChaosSite: chaos.Site{Point: 2, Col: 3}})
	if !res.Breakdown {
		t.Fatalf("injected breakdown did not trigger: %+v", res)
	}
	if res.Iterations != 0 {
		t.Errorf("breakdown after %d iterations, want 0", res.Iterations)
	}
	if res.Converged || res.StoppedEarly {
		t.Errorf("a broken-down solve must not also report success: %+v", res)
	}
	// The restart attempt draws a fresh decision (RestartBreakdown = 0):
	// the same systems now solve cleanly.
	res = BiCGDual(matApply(a), matApply(a.ConjTranspose()), b, b, x, xd,
		Options{Tol: 1e-11, Chaos: inj, ChaosSite: chaos.Site{Point: 2, Col: 3, Attempt: 1}})
	if !res.Converged {
		t.Fatalf("restart attempt did not converge: %+v", res)
	}
}

// TestInjectedBreakdownBlocked: per-column injection in the block solver
// must break exactly the targeted columns and leave the rest converging.
func TestInjectedBreakdownBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n, nb := 30, 4
	a := randDiagDominant(rng, n)
	apply := columnwise(matApply(a), n)
	applyD := columnwise(matApply(a.ConjTranspose()), n)
	b := randBlock(n, nb, 17)
	x, xd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
	inj := chaos.New(1, chaos.Config{Breakdown: 1, Columns: []int{1, 3}})
	rs := BlockBiCGDualSoA(apply, applyD, b, b, x, xd,
		Options{Tol: 1e-11, Chaos: inj, ChaosSite: chaos.Site{Point: 0, Col: 0}}, nil, nil)
	for c, r := range rs {
		targeted := c == 1 || c == 3
		if targeted && !r.Breakdown {
			t.Errorf("column %d: injected breakdown did not trigger: %+v", c, r)
		}
		if !targeted && !r.Converged {
			t.Errorf("column %d: clean column did not converge: %+v", c, r)
		}
	}
}

// TestGroupStopStragglerUnderInjectedNonConvergence exercises the paper's
// strictly-over-half early-stop rule with a column that never converges
// (breakdown injected at every attempt, fallback failed too): across a
// group of "quadrature points" the majority must converge and mark the
// group, the straggler must never trip the stop prematurely, and no solve
// may deadlock. This is the satellite guarantee that one poisoned column
// cannot stall or corrupt the load-balancing layer.
func TestGroupStopStragglerUnderInjectedNonConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	n, nb := 30, 3
	nPoints := 5
	a := randDiagDominant(rng, n)
	ah := a.ConjTranspose()
	apply := columnwise(matApply(a), n)
	applyD := columnwise(matApply(ah), n)
	b := randBlock(n, nb, 18)
	// Column 1 breaks down at every point and every attempt.
	inj := chaos.New(5, chaos.Config{Breakdown: 1, RestartBreakdown: 1, Columns: []int{1}})
	groups := make([]*GroupStop, nb)
	for c := range groups {
		groups[c] = NewGroupStop(nPoints, true)
	}
	for j := 0; j < nPoints; j++ {
		x, xd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
		rs := BlockBiCGDualSoA(apply, applyD, b, b, x, xd,
			Options{Tol: 1e-11, MaxIter: 500, Chaos: inj, ChaosSite: chaos.Site{Point: j}},
			groups, nil)
		for c, r := range rs {
			if c == 1 {
				if r.Converged {
					t.Fatalf("point %d: poisoned column converged", j)
				}
				if r.StoppedEarly {
					t.Fatalf("point %d: straggler stopped early despite zero converged members", j)
				}
				continue
			}
			if !r.Converged && !r.StoppedEarly {
				t.Fatalf("point %d column %d: healthy column failed: %+v", j, c, r)
			}
		}
	}
	// Healthy columns reached full majority; the straggler column marked
	// nothing and its controller must not request a stop.
	for c, g := range groups {
		if c == 1 {
			if g.Converged() != 0 {
				t.Errorf("straggler group counted %d conversions", g.Converged())
			}
			if g.ShouldStop() {
				t.Error("straggler group must not stop with zero conversions")
			}
			continue
		}
		// Once strictly more than half converged, later points may stop
		// early instead of converging fully — that is the rule working.
		if 2*g.Converged() <= nPoints {
			t.Errorf("column %d: only %d of %d points converged", c, g.Converged(), nPoints)
		}
		if !g.ShouldStop() {
			t.Errorf("column %d: majority reached but ShouldStop is false", c)
		}
	}
	// Strictly-over-half: with exactly half converged the rule must hold a
	// straggler in the loop (it exits via MaxIter, not early stop).
	half := NewGroupStop(2, true)
	half.MarkConverged()
	x := make([]complex128, n)
	xd := make([]complex128, n)
	b0 := blockCol(b, 0)
	res := BiCGDual(matApply(a), matApply(ah), b0, b0, x, xd,
		Options{Tol: 1e-30, LooseTol: 1e30, MaxIter: 8, Group: half})
	if res.StoppedEarly {
		t.Error("exactly half converged must not stop the straggler (strictly-over-half rule)")
	}
	if res.Converged || res.Breakdown {
		t.Errorf("held straggler must leave via MaxIter as plain non-convergence, got %+v", res)
	}
}
