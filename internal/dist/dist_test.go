package dist

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"time"

	"cbs/internal/chaos"
	"cbs/internal/hamiltonian"
	"cbs/internal/lattice"
	"cbs/internal/linsolve"
	"cbs/internal/qep"
	"cbs/internal/soa"
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
	return qep.NewBackend(op, 0.25)
}

func randBlock(n, nb int, seed int64) *soa.Block[float64] {
	b := soa.NewBlock[float64](n, nb)
	rng := rand.New(rand.NewSource(seed))
	for i := range b.Re {
		b.Re[i] = rng.Float64()*2 - 1
		b.Im[i] = rng.Float64()*2 - 1
	}
	return b
}

// maxDev is the largest elementwise distance between two blocks.
func maxDev(a, b *soa.Block[float64]) float64 {
	var d float64
	for i := range a.Re {
		d = math.Max(d, cmplx.Abs(complex(a.Re[i]-b.Re[i], a.Im[i]-b.Im[i])))
	}
	return d
}

// TestDistributedApplyMatchesSerial: the SPMD block apply with any domain
// count must reproduce the serial plane apply up to reduction rounding, on
// a single column, a lane tail and the paper's block width, with one halo
// message per link and direction whatever nb is.
func TestDistributedApplyMatchesSerial(t *testing.T) {
	q := testProblem(t)
	n := q.Dim()
	z := complex(1.3, 0.7)
	for _, nb := range []int{1, 3, 16} {
		v := randBlock(n, nb, int64(nb))
		want := soa.NewBlock[float64](n, nb)
		qep.ApplyBlockSoA(q, q.B, z, v, want)
		for _, ndm := range []int{1, 2, 4} {
			s, err := NewSolver(q, ndm)
			if err != nil {
				t.Fatalf("ndm=%d: %v", ndm, err)
			}
			got := soa.NewBlock[float64](n, nb)
			stats, err := s.ApplyBlock(z, v, got)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxDev(got, want); d > 1e-11 {
				t.Errorf("nb=%d ndm=%d: distributed apply deviates by %g", nb, ndm, d)
			}
			if stats.Messages != int64(2*ndm) {
				t.Errorf("nb=%d ndm=%d: %d halo messages, want %d", nb, ndm, stats.Messages, 2*ndm)
			}
		}
	}
}

// TestDistributedDaggerIdentity: P(z)^dagger V computed distributedly must
// equal the serial dagger apply.
func TestDistributedDaggerIdentity(t *testing.T) {
	q := testProblem(t)
	n, nb := q.Dim(), 3
	v := randBlock(n, nb, 2)
	z := complex(0.4, -0.9)
	want := soa.NewBlock[float64](n, nb)
	qep.ApplyDaggerBlockSoA(q, q.B, z, v, want)
	s, err := NewSolver(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := soa.NewBlock[float64](n, nb)
	if _, err := s.ApplyBlock(1/cmplx.Conj(z), v, got); err != nil {
		t.Fatal(err)
	}
	if d := maxDev(got, want); d > 1e-11 {
		t.Fatalf("dagger apply deviates by %g", d)
	}
}

// TestDistributedSolveMatchesSerialBiCG: the distributed block solve must
// solve every column's primal and dual system, and agree with the serial
// block solve.
func TestDistributedSolveMatchesSerialBiCG(t *testing.T) {
	q := testProblem(t)
	n, nb := q.Dim(), 3
	b := randBlock(n, nb, 3)
	z := complex(1.1, 1.0) // well inside the resolvent set
	opts := linsolve.Options{Tol: 1e-10, MaxIter: 4000}
	apply := func(v, out *soa.Block[float64]) { qep.ApplyBlockSoA(q, q.B, z, v, out) }
	applyD := func(v, out *soa.Block[float64]) { qep.ApplyDaggerBlockSoA(q, q.B, z, v, out) }
	sx, sxd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
	serial := linsolve.BlockBiCGDualSoA(apply, applyD, b, b, sx, sxd, opts, nil, nil)

	for _, ndm := range []int{1, 2, 4} {
		s, err := NewSolver(q, ndm)
		if err != nil {
			t.Fatal(err)
		}
		x, xd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
		rs, stats, err := s.SolveBlock(context.Background(), z, b, x, xd, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for c, r := range rs {
			if !r.Converged {
				t.Fatalf("ndm=%d col %d: no convergence after %d iterations (res %g)", ndm, c, r.Iterations, r.Residual)
			}
			if d := r.Iterations - serial[c].Iterations; d < -2 || d > 2 {
				t.Errorf("ndm=%d col %d: %d iterations, serial %d", ndm, c, r.Iterations, serial[c].Iterations)
			}
		}
		// Verify against the serial operator.
		out := soa.NewBlock[float64](n, nb)
		for _, sys := range []struct {
			name string
			x    *soa.Block[float64]
			op   func(v, out *soa.Block[float64])
		}{{"primal", x, apply}, {"dual", xd, applyD}} {
			sys.op(sys.x, out)
			if r := maxDev(out, b); r > 1e-8 {
				t.Errorf("ndm=%d: %s residual %g", ndm, sys.name, r)
			}
		}
		if stats.Messages == 0 || stats.Bytes == 0 {
			t.Errorf("ndm=%d: no halo traffic recorded", ndm)
		}
	}
}

// TestMessagesIndependentOfBlockWidth: a halo message carries every column
// of the block, so one block solve sends as many messages at nb 8 as at
// nb 1 for the same iteration count; only the bytes scale with nb.
func TestMessagesIndependentOfBlockWidth(t *testing.T) {
	q := testProblem(t)
	s, err := NewSolver(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := q.Dim()
	opts := linsolve.Options{Tol: 1e-300, MaxIter: 7} // every column runs all 7 iterations
	var stats [2]Stats
	for i, nb := range []int{1, 8} {
		b := randBlock(n, nb, 4)
		x, xd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
		rs, st, err := s.SolveBlock(context.Background(), complex(1.2, 0.8), b, x, xd, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for c, r := range rs {
			if r.Iterations != opts.MaxIter {
				t.Fatalf("nb=%d col %d: %d iterations, want %d", nb, c, r.Iterations, opts.MaxIter)
			}
		}
		stats[i] = st
	}
	// Two applies to start, two per iteration; two messages per rank each.
	if want := int64((2 + 2*opts.MaxIter) * 2 * s.Ndm); stats[0].Messages != want || stats[1].Messages != want {
		t.Errorf("messages nb=1: %d, nb=8: %d, want %d for both", stats[0].Messages, stats[1].Messages, want)
	}
	if stats[1].Bytes != 8*stats[0].Bytes {
		t.Errorf("bytes nb=8: %d, want 8 x %d", stats[1].Bytes, stats[0].Bytes)
	}
}

// TestMemoryBytesCountsRankBuffers pins MemoryBytes to the buffers a block
// solve allocates on its ranks — each rank's workspace and apply scratch —
// short only of their O(nb) per-column scalars.
func TestMemoryBytesCountsRankBuffers(t *testing.T) {
	q := testProblem(t)
	for _, ndm := range []int{1, 2, 4} {
		s, err := NewSolver(q, ndm)
		if err != nil {
			t.Fatal(err)
		}
		const nb = 5
		var have int64
		for r, rs := range s.ranks {
			ra := s.newRankApply(r, nil, nb)
			have += linsolve.NewWorkspaceSoA[float64](rs.n, nb).MemoryBytes() +
				ra.ext.MemoryBytes() + ra.extOut.MemoryBytes() +
				int64(cap(ra.halo)+cap(ra.csum)+cap(ra.red))*16 +
				int64(cap(ra.sumRe)+cap(ra.sumIm)+cap(ra.coefRe)+cap(ra.coefIm))*8
		}
		got := s.MemoryBytes(nb)
		if slack := int64(ndm * nb * 350); got > have || have-got > slack {
			t.Errorf("ndm=%d: MemoryBytes = %d, the ranks allocate %d (allowed shortfall %d)", ndm, got, have, slack)
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
	short := soa.NewBlock[float64](3, 1)
	full := soa.NewBlock[float64](q.Dim(), 1)
	if _, err := s.ApplyBlock(1, short, full); err == nil {
		t.Error("short block should fail")
	}
	if _, _, err := s.SolveBlock(context.Background(), 1, full, short, full, linsolve.Options{}, nil); err == nil {
		t.Error("short block should fail in SolveBlock")
	}
}

// TestGroupStopPropagation: a pre-tripped group controller held by rank 0
// must stop its column on every rank, without deadlock, while the other
// columns run to convergence and mark their own groups once.
func TestGroupStopPropagation(t *testing.T) {
	q := testProblem(t)
	n, nb := q.Dim(), 3
	b := randBlock(n, nb, 4)
	groups := make([]*linsolve.GroupStop, nb)
	for c := range groups {
		groups[c] = linsolve.NewGroupStop(2, true)
	}
	groups[1].MarkConverged()
	groups[1].MarkConverged()
	s, err := NewSolver(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, xd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
	rs, _, err := s.SolveBlock(context.Background(), complex(1.2, 0.8), b, x, xd,
		linsolve.Options{Tol: 1e-10, LooseTol: 1e30, MaxIter: 4000}, groups)
	if err != nil {
		t.Fatal(err)
	}
	if !rs[1].StoppedEarly || rs[1].Iterations != 0 {
		t.Errorf("column 1: expected an early stop at the first check, got %+v", rs[1])
	}
	for _, c := range []int{0, 2} {
		if !rs[c].Converged {
			t.Errorf("column %d did not converge: %+v", c, rs[c])
		}
		if got := groups[c].Converged(); got != 1 {
			t.Errorf("column %d marked its group %d times, want once", c, got)
		}
	}
}

// TestSolveBlockCancellation: a dead context must stop every rank promptly
// and surface a typed, errors.Is-able cause — no rank may be left blocked
// in a collective.
func TestSolveBlockCancellation(t *testing.T) {
	q := testProblem(t)
	n, nb := q.Dim(), 2
	b := randBlock(n, nb, 5)
	s, err := NewSolver(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, xd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)

	// Pre-canceled context: the solve must refuse to start.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.SolveBlock(ctx, complex(1.1, 1.0), b, x, xd, linsolve.Options{Tol: 1e-10, MaxIter: 4000}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled solve: err = %v, want context.Canceled", err)
	}

	// Expired deadline during the iteration: an unreachable tolerance keeps
	// the solver iterating until rank 0 notices the deadline; the flag ride
	// breaks all ranks out together (the test would hang otherwise).
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	if _, _, err := s.SolveBlock(ctx2, complex(1.1, 1.0), b, x, xd, linsolve.Options{Tol: 1e-300, MaxIter: 1 << 30}, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out solve: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestInjectedBreakdownDistributed: the block recurrence's chaos draw is a
// pure hash of its site, so a certain-rate injector on one column zeroes
// rho identically on every rank: that column reports an immediate
// collective breakdown while the others converge.
func TestInjectedBreakdownDistributed(t *testing.T) {
	q := testProblem(t)
	n, nb := q.Dim(), 3
	b := randBlock(n, nb, 8)
	s, err := NewSolver(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, xd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
	inj := chaos.New(3, chaos.Config{Breakdown: 1, Columns: []int{2}})
	rs, _, err := s.SolveBlock(context.Background(), complex(1.1, 0.6), b, x, xd,
		linsolve.Options{Tol: 1e-10, MaxIter: 4000, Chaos: inj, ChaosSite: chaos.Site{Point: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rs[2].Breakdown || rs[2].Iterations != 0 {
		t.Fatalf("injected breakdown did not trigger at the start: %+v", rs[2])
	}
	for _, c := range []int{0, 1} {
		if !rs[c].Converged {
			t.Errorf("clean column %d did not converge: %+v", c, rs[c])
		}
	}
}

// TestHaloChaosCorruption: an injector on the fabric corrupts the halo
// exchange deterministically -- the distributed apply deviates from the
// serial operator, identically across repeated runs.
func TestHaloChaosCorruption(t *testing.T) {
	q := testProblem(t)
	n, nb := q.Dim(), 3
	v := randBlock(n, nb, 6)
	z := complex(1.3, 0.7)
	want := soa.NewBlock[float64](n, nb)
	qep.ApplyBlockSoA(q, q.B, z, v, want)

	s, err := NewSolver(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetChaos(chaos.New(9, chaos.Config{Halo: 1}))
	got := soa.NewBlock[float64](n, nb)
	if _, err := s.ApplyBlock(z, v, got); err != nil {
		t.Fatal(err)
	}
	if maxDev(got, want) == 0 {
		t.Fatal("certain halo corruption left the distributed apply unchanged")
	}

	// Same seed, fresh world: per-link sequence counters restart, so the
	// corrupted result is reproduced exactly.
	again := soa.NewBlock[float64](n, nb)
	if _, err := s.ApplyBlock(z, v, again); err != nil {
		t.Fatal(err)
	}
	if maxDev(got, again) != 0 {
		t.Fatal("halo corruption not deterministic")
	}

	// Removing the injector restores the exact serial operator.
	s.SetChaos(nil)
	clean := soa.NewBlock[float64](n, nb)
	if _, err := s.ApplyBlock(z, v, clean); err != nil {
		t.Fatal(err)
	}
	if d := maxDev(clean, want); d > 1e-11 {
		t.Fatalf("clean apply deviates by %g after chaos removal", d)
	}
}
