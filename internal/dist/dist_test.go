package dist

import (
	"context"
	"errors"
	"math/cmplx"
	"math/rand"
	"testing"
	"time"

	"cbs/internal/chaos"
	"cbs/internal/hamiltonian"
	"cbs/internal/lattice"
	"cbs/internal/linsolve"
	"cbs/internal/qep"
	"cbs/internal/zlinalg"
)

// testProblem builds a small physical QEP (bulk Al on a coarse grid).
func testProblem(t *testing.T) *qep.Problem {
	t.Helper()
	st, err := lattice.AlBulk100(1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := hamiltonian.Build(st, hamiltonian.Config{Nx: 6, Ny: 6, Nz: 16, Nf: 4})
	if err != nil {
		t.Fatal(err)
	}
	return qep.New(op, 0.25)
}

func randVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

// TestDistributedApplyMatchesSerial: the SPMD apply with any domain count
// must reproduce the serial qep.Apply bit-for-bit up to reduction rounding.
func TestDistributedApplyMatchesSerial(t *testing.T) {
	q := testProblem(t)
	n := q.Dim()
	rng := rand.New(rand.NewSource(1))
	v := randVec(rng, n)
	z := complex(1.3, 0.7)

	want := make([]complex128, n)
	scratch := make([]complex128, n)
	q.Apply(z, v, want, scratch)

	for _, ndm := range []int{1, 2, 4} {
		s, err := NewSolver(q, ndm)
		if err != nil {
			t.Fatalf("ndm=%d: %v", ndm, err)
		}
		got, err := s.ApplyOnce(z, v)
		if err != nil {
			t.Fatal(err)
		}
		var maxd float64
		for i := range got {
			if d := cmplx.Abs(got[i] - want[i]); d > maxd {
				maxd = d
			}
		}
		if maxd > 1e-11 {
			t.Errorf("ndm=%d: distributed apply deviates by %g", ndm, maxd)
		}
	}
}

// TestDistributedDaggerIdentity: P(z)^dagger v computed distributedly must
// equal the serial dagger apply.
func TestDistributedDaggerIdentity(t *testing.T) {
	q := testProblem(t)
	n := q.Dim()
	rng := rand.New(rand.NewSource(2))
	v := randVec(rng, n)
	z := complex(0.4, -0.9)
	want := make([]complex128, n)
	scratch := make([]complex128, n)
	q.ApplyDagger(z, v, want, scratch)
	s, err := NewSolver(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ApplyOnce(1/cmplx.Conj(z), v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-11 {
			t.Fatalf("dagger mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestDistributedSolveMatchesSerialBiCG: the distributed dual BiCG must
// solve both the primal and the dual system.
func TestDistributedSolveMatchesSerialBiCG(t *testing.T) {
	q := testProblem(t)
	n := q.Dim()
	rng := rand.New(rand.NewSource(3))
	b := randVec(rng, n)
	bd := randVec(rng, n)
	z := complex(1.1, 1.0) // well inside the resolvent set

	for _, ndm := range []int{1, 2, 4} {
		s, err := NewSolver(q, ndm)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]complex128, n)
		xd := make([]complex128, n)
		res, stats, err := s.SolveDual(context.Background(), z, b, bd, x, xd, linsolve.Options{Tol: 1e-10, MaxIter: 4000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("ndm=%d: no convergence after %d iterations (res %g)", ndm, res.Iterations, res.Residual)
		}
		// Verify against the serial operator.
		out := make([]complex128, n)
		scratch := make([]complex128, n)
		q.Apply(z, x, out, scratch)
		for i := range out {
			out[i] -= b[i]
		}
		if r := zlinalg.Norm2(out) / zlinalg.Norm2(b); r > 1e-8 {
			t.Errorf("ndm=%d: primal residual %g", ndm, r)
		}
		q.ApplyDagger(z, xd, out, scratch)
		for i := range out {
			out[i] -= bd[i]
		}
		if r := zlinalg.Norm2(out) / zlinalg.Norm2(bd); r > 1e-8 {
			t.Errorf("ndm=%d: dual residual %g", ndm, r)
		}
		if ndm > 1 && stats.Messages == 0 {
			t.Errorf("ndm=%d: no messages recorded", ndm)
		}
		if ndm == 1 && stats.Messages != 0 {
			t.Errorf("ndm=1: unexpected point-to-point traffic (%d msgs)", stats.Messages)
		}
	}
}

func TestSolverValidation(t *testing.T) {
	q := testProblem(t)
	if _, err := NewSolver(q, 0); err == nil {
		t.Error("ndm=0 should fail")
	}
	// 16 planes with Nf=4: 5 domains would give slabs of 3 < 4 planes.
	if _, err := NewSolver(q, 5); err == nil {
		t.Error("slabs thinner than the stencil must be rejected")
	}
	s, _ := NewSolver(q, 2)
	short := make([]complex128, 3)
	if _, err := s.ApplyOnce(1, short); err == nil {
		t.Error("short vector should fail")
	}
	full := make([]complex128, q.Dim())
	if _, _, err := s.SolveDual(context.Background(), 1, short, full, full, full, linsolve.Options{}); err == nil {
		t.Error("short vector should fail in SolveDual")
	}
}

// TestGroupStopPropagation: a pre-tripped group controller must stop the
// distributed solve on every rank without deadlock.
func TestGroupStopPropagation(t *testing.T) {
	q := testProblem(t)
	n := q.Dim()
	rng := rand.New(rand.NewSource(4))
	b := randVec(rng, n)
	g := linsolve.NewGroupStop(2, true)
	g.MarkConverged()
	g.MarkConverged()
	s, err := NewSolver(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, n)
	xd := make([]complex128, n)
	res, _, err := s.SolveDual(context.Background(), complex(1.2, 0.8), b, b, x, xd,
		linsolve.Options{Tol: 1e-14, LooseTol: 1e30, MaxIter: 100, Group: g})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly {
		t.Errorf("expected early stop, got %+v", res)
	}
	if res.Iterations > 1 {
		t.Errorf("stopped after %d iterations, want at most 1", res.Iterations)
	}
}

// TestSolveDualCancellation: a dead context must stop every rank promptly
// and surface a typed, errors.Is-able cause — no rank may be left blocked
// in a collective.
func TestSolveDualCancellation(t *testing.T) {
	q := testProblem(t)
	n := q.Dim()
	rng := rand.New(rand.NewSource(5))
	b := randVec(rng, n)
	s, err := NewSolver(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, n)
	xd := make([]complex128, n)

	// Pre-canceled context: the solve must refuse to start.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := s.SolveDual(ctx, complex(1.1, 1.0), b, b, x, xd,
		linsolve.Options{Tol: 1e-10, MaxIter: 4000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled solve: err = %v, want context.Canceled", err)
	}
	if res.Converged {
		t.Error("pre-canceled solve reported convergence")
	}

	// Expired deadline during the iteration: an unreachable tolerance keeps
	// the solver iterating until rank 0 notices the deadline; the flag ride
	// breaks all ranks out together (the test would hang otherwise).
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	res, _, err = s.SolveDual(ctx2, complex(1.1, 1.0), b, b, x, xd,
		linsolve.Options{Tol: 1e-300, MaxIter: 1 << 30})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out solve: err = %v, want context.DeadlineExceeded", err)
	}
	if res.Converged {
		t.Error("canceled solve reported convergence")
	}
}

// TestInjectedBreakdownDistributed: a certain-rate injector on the
// dist.breakdown site zeroes rho identically on every rank, so the
// distributed dual solve reports an immediate collective breakdown.
func TestInjectedBreakdownDistributed(t *testing.T) {
	q := testProblem(t)
	n := q.Dim()
	rng := rand.New(rand.NewSource(8))
	b := randVec(rng, n)
	s, err := NewSolver(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, n)
	xd := make([]complex128, n)
	inj := chaos.New(3, chaos.Config{Breakdown: 1})
	res, _, err := s.SolveDual(context.Background(), complex(1.1, 0.6), b, b, x, xd,
		linsolve.Options{Tol: 1e-11, MaxIter: 50, Chaos: inj, ChaosSite: chaos.Site{Point: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Breakdown {
		t.Fatalf("injected breakdown did not trigger: %+v", res)
	}
	if res.Iterations != 0 {
		t.Errorf("breakdown after %d iterations, want 0", res.Iterations)
	}
}

// TestHaloChaosCorruption: an injector on the fabric corrupts the halo
// exchange deterministically -- the distributed apply deviates from the
// serial operator, identically across repeated runs.
func TestHaloChaosCorruption(t *testing.T) {
	q := testProblem(t)
	n := q.Dim()
	rng := rand.New(rand.NewSource(6))
	v := randVec(rng, n)
	z := complex(1.3, 0.7)

	want := make([]complex128, n)
	scratch := make([]complex128, n)
	q.Apply(z, v, want, scratch)

	s, err := NewSolver(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetChaos(chaos.New(9, chaos.Config{Halo: 1}))
	got, err := s.ApplyOnce(z, v)
	if err != nil {
		t.Fatal(err)
	}
	var maxd float64
	for i := range got {
		if d := cmplx.Abs(got[i] - want[i]); d > maxd {
			maxd = d
		}
	}
	if maxd == 0 {
		t.Fatal("certain halo corruption left the distributed apply unchanged")
	}

	// Same seed, fresh world: per-link sequence counters restart, so the
	// corrupted result is reproduced exactly.
	again, err := s.ApplyOnce(z, v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("halo corruption not deterministic at %d: %v vs %v", i, got[i], again[i])
		}
	}

	// Removing the injector restores the exact serial operator.
	s.SetChaos(nil)
	clean, err := s.ApplyOnce(z, v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if cmplx.Abs(clean[i]-want[i]) > 1e-11 {
			t.Fatalf("clean apply deviates at %d after chaos removal", i)
		}
	}
}
