// Package dist implements the bottom layer of the paper's hierarchical
// parallelism: the BiCG solve of one quadrature-point system P(z) Y = V is
// domain-decomposed into z-slabs, one SPMD rank per domain, communicating
// through a comm.Communicator exactly as the MPI code does -- ring halo
// exchange of the stencil boundary planes with a Bloch phase twist at the
// cell seam, and allreduce for the BiCG inner products and the nonlocal
// projector coefficients (the global communication the paper identifies as
// the large-scale bottleneck). Ranks are goroutines of one process on a
// comm.World (channels stand in for MPI, DESIGN §2); the reduction sums in
// rank order, so a solve's bits do not depend on scheduling.
package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"cbs/internal/chaos"
	"cbs/internal/comm"
	"cbs/internal/grid"
	"cbs/internal/linsolve"
	"cbs/internal/qep"
	"cbs/internal/zlinalg"
)

// Solver holds the per-domain precomputation for one QEP.
type Solver struct {
	Q     *qep.Problem
	Ndm   int
	slabs []grid.Slab
	ranks []*rankState
	inj   *chaos.Injector
}

// SetChaos installs a deterministic fault injector (nil disables it). Every
// World created by subsequent solves inherits it, so halo-exchange payloads
// become corruptible test subjects. Not safe to change concurrently with a
// running solve.
func (s *Solver) SetChaos(inj *chaos.Injector) { s.inj = inj }

// rankState is the static per-rank data.
type rankState struct {
	slab   grid.Slab
	n      int // local vector length
	offset int // global flat offset of the slab
	// Projector support segments restricted to this slab, indices localized.
	segs []projSeg
}

type projSeg struct {
	proj int // projector index (for the coefficient exchange layout)
	off  int // cell offset slot 0..2
	idx  []int32
	val  []float64
}

// NewSolver prepares an ndm-domain decomposition of the QEP.
func NewSolver(q *qep.Problem, ndm int) (*Solver, error) {
	if q.Op == nil {
		return nil, fmt.Errorf("dist: the Ndm > 1 domain decomposition requires the FD-grid backend (backend %q has no slab geometry)", q.B.Descriptor())
	}
	g := q.Op.G
	if ndm < 1 {
		return nil, fmt.Errorf("dist: ndm = %d < 1", ndm)
	}
	slabs, err := g.Decompose(ndm)
	if err != nil {
		return nil, err
	}
	nf := q.Op.St.Nf
	for _, s := range slabs {
		if s.NPlanes() < nf {
			return nil, fmt.Errorf("dist: slab with %d planes is thinner than the stencil half-width %d", s.NPlanes(), nf)
		}
	}
	sv := &Solver{Q: q, Ndm: ndm, slabs: slabs}
	plane := g.PlaneSize()
	for r := 0; r < ndm; r++ {
		rs := &rankState{slab: slabs[r], offset: slabs[r].Z0 * plane}
		rs.n = slabs[r].NPlanes() * plane
		for pi := range q.Op.Projs {
			p := &q.Op.Projs[pi]
			for off := 0; off < 3; off++ {
				s := &p.Supp[off]
				var seg projSeg
				for i, gidx := range s.Idx {
					iz := int(gidx) / plane
					if iz >= slabs[r].Z0 && iz < slabs[r].Z1 {
						seg.idx = append(seg.idx, gidx-int32(rs.offset))
						seg.val = append(seg.val, s.Val[i])
					}
				}
				if len(seg.idx) > 0 {
					seg.proj = pi
					seg.off = off
					rs.segs = append(rs.segs, seg)
				}
			}
		}
		sv.ranks = append(sv.ranks, rs)
	}
	return sv, nil
}

// Stats reports the communication traffic of one solve.
type Stats struct {
	Messages int64
	Bytes    int64
}

// groupErr picks the error that speaks for a failed world: rank 0's when
// it carries more than the shutdown echo, else the first rank that saw the
// original fault. ErrClosed alone is the aftermath of another rank's
// failure, never the cause.
func groupErr(errs []error) error {
	if errs[0] != nil && !errors.Is(errs[0], comm.ErrClosed) {
		return errs[0]
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, comm.ErrClosed) {
			return err
		}
	}
	return errs[0]
}

// SolveDual runs the distributed dual BiCG: P(z) x = b and P(z)^dagger
// xd = bd. b, bd, x, xd are full-length (N) vectors; x and xd are
// overwritten (zero initial guess).
//
// Cancellation: rank 0 polls ctx once per iteration and the decision rides
// along with the inner-product allreduce, so every rank leaves the
// iteration loop at the same step (no rank is left blocked in a
// collective). On cancellation the returned error wraps ctx.Err().
//
// Fault propagation: a rank whose communication call fails
// (ErrShapeMismatch) closes the world, so every other rank unblocks with
// ErrClosed; the originating error is the one returned.
func (s *Solver) SolveDual(ctx context.Context, z complex128, b, bd, x, xd []complex128, opts linsolve.Options) (linsolve.Result, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := s.Q.Dim()
	if len(b) != n || len(bd) != n || len(x) != n || len(xd) != n {
		return linsolve.Result{}, Stats{}, fmt.Errorf("dist: vector length mismatch")
	}
	if err := ctx.Err(); err != nil {
		return linsolve.Result{}, Stats{}, fmt.Errorf("dist: solve not started: %w", err)
	}
	world, err := comm.NewWorld(s.Ndm)
	if err != nil {
		return linsolve.Result{}, Stats{}, err
	}
	defer world.Close()
	world.SetChaos(s.inj)
	results := make([]linsolve.Result, s.Ndm)
	errs := make([]error, s.Ndm)
	var wg sync.WaitGroup
	for r := 0; r < s.Ndm; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, cerr := world.Comm(rank)
			if cerr != nil {
				errs[rank] = cerr
				world.Close()
				return
			}
			results[rank], errs[rank] = s.rankSolve(ctx, c, rank, z, b, bd, x, xd, opts)
			if errs[rank] != nil {
				// Unblock the surviving ranks: without the failed rank the
				// collectives can never complete.
				world.Close()
			}
		}(r)
	}
	wg.Wait()
	return results[0], Stats{Messages: world.Messages(), Bytes: world.Bytes()}, groupErr(errs)
}

// ApplyOnce performs one distributed operator application out = P(z) v on
// the full vector (used by tests and the scaling experiments to measure a
// single halo-exchange + allreduce round).
func (s *Solver) ApplyOnce(z complex128, v []complex128) ([]complex128, error) {
	n := s.Q.Dim()
	if len(v) != n {
		return nil, fmt.Errorf("dist: ApplyOnce length mismatch")
	}
	world, err := comm.NewWorld(s.Ndm)
	if err != nil {
		return nil, err
	}
	defer world.Close()
	world.SetChaos(s.inj)
	out := make([]complex128, n)
	errs := make([]error, s.Ndm)
	var wg sync.WaitGroup
	for r := 0; r < s.Ndm; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, cerr := world.Comm(rank)
			if cerr != nil {
				errs[rank] = cerr
				world.Close()
				return
			}
			rs := s.ranks[rank]
			ax := newApplyCtx(s, rank)
			errs[rank] = ax.apply(c, z, v[rs.offset:rs.offset+rs.n], out[rs.offset:rs.offset+rs.n])
			if errs[rank] != nil {
				world.Close()
			}
		}(r)
	}
	wg.Wait()
	if err := groupErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// Control-flag bits ridden along the per-iteration allreduce. Rank 0 makes
// both decisions (group early-stop, context cancellation) and the reduction
// broadcasts them, keeping the ranks iteration-aligned.
const (
	flagGroupStop = 1 << iota
	flagCanceled
)

// rankSolve is the SPMD body executed by every rank. Solver-outcome errors
// (cancellation) are reported only by rank 0 — the ranks agree on the
// outcome and rank 0 speaks for the group; communication errors are
// reported by whichever rank observed them.
func (s *Solver) rankSolve(ctx context.Context, c *comm.Communicator, rank int, z complex128, b, bd, x, xd []complex128, opts linsolve.Options) (linsolve.Result, error) {
	rs := s.ranks[rank]
	n := rs.n
	res := linsolve.Result{}
	canceled := false
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 10*s.Q.Dim() + 100
	}
	zd := 1 / conj(z) // dagger apply is P(zd)

	// Local views of the global output slices (disjoint across ranks).
	xl := x[rs.offset : rs.offset+n]
	xdl := xd[rs.offset : rs.offset+n]
	for i := range xl {
		xl[i] = 0
		xdl[i] = 0
	}
	r := append([]complex128(nil), b[rs.offset:rs.offset+n]...)
	rd := append([]complex128(nil), bd[rs.offset:rs.offset+n]...)
	p := append([]complex128(nil), r...)
	pd := append([]complex128(nil), rd...)
	q := make([]complex128, n)
	qd := make([]complex128, n)

	ax := newApplyCtx(s, rank)

	// Initial reductions: rho, |b|^2, |bd|^2.
	init, err := c.AllreduceSum([]complex128{
		zlinalg.Dot(rd, r),
		complex(norm2sq(r), 0),
		complex(norm2sq(rd), 0),
	})
	if err != nil {
		return res, fmt.Errorf("dist: rank %d initial reduction: %w", rank, err)
	}
	rho := init[0]
	//cbs:chaossite dist.breakdown
	if opts.Chaos.Breakdown(opts.ChaosSite) {
		// Injected Lanczos breakdown. The decision is a pure hash of the
		// chaos site, so every rank zeroes rho identically — no divergence
		// of control flow across the world.
		rho = 0
	}
	nb := sqrtRe(init[1])
	nbd := sqrtRe(init[2])
	if nb == 0 {
		nb = 1
	}
	if nbd == 0 {
		nbd = 1
	}
	rel := sqrtRe(init[1]) / nb
	relD := sqrtRe(init[2]) / nbd
	if opts.History {
		res.History = append(res.History, rel)
	}
	for iter := 0; iter < maxIter; iter++ {
		if rel <= opts.Tol && relD <= opts.Tol {
			res.Converged = true
			break
		}
		if cabs2(rho) < 1e-290 {
			res.Breakdown = true
			break
		}
		// Group early stop and cancellation: rank 0 reads the shared
		// controller (guarded by the loose straggler tolerance, see
		// linsolve.Options) and polls the context; both decisions ride
		// along with the next reduction as flag bits so every rank breaks
		// at the same iteration.
		loose := opts.LooseTol
		if loose <= 0 {
			loose = 100 * opts.Tol
		}
		var stopFlag complex128
		if rank == 0 {
			if opts.Group != nil && rel <= loose && relD <= loose && opts.Group.ShouldStop() {
				stopFlag += flagGroupStop
			}
			if ctx.Err() != nil {
				stopFlag += flagCanceled
			}
		}
		if err := ax.apply(c, z, p, q); err != nil {
			return res, fmt.Errorf("dist: rank %d apply at iteration %d: %w", rank, res.Iterations, err)
		}
		if err := ax.applyDagger(c, zd, pd, qd); err != nil {
			return res, fmt.Errorf("dist: rank %d dagger apply at iteration %d: %w", rank, res.Iterations, err)
		}
		res.MatVecApplied += 2
		out, err := c.AllreduceSum([]complex128{zlinalg.Dot(pd, q), stopFlag})
		if err != nil {
			return res, fmt.Errorf("dist: rank %d inner-product reduction: %w", rank, err)
		}
		den := out[0]
		flags := int(real(out[1]) + 0.5)
		if flags&flagCanceled != 0 {
			canceled = true
			break
		}
		if flags&flagGroupStop != 0 {
			res.StoppedEarly = true
			break
		}
		if cabs2(den) < 1e-290 {
			res.Breakdown = true
			break
		}
		alpha := rho / den
		alphaC := conj(alpha)
		for i := 0; i < n; i++ {
			xl[i] += alpha * p[i]
			xdl[i] += alphaC * pd[i]
			r[i] -= alpha * q[i]
			rd[i] -= alphaC * qd[i]
		}
		red, err := c.AllreduceSum([]complex128{
			zlinalg.Dot(rd, r),
			complex(norm2sq(r), 0),
			complex(norm2sq(rd), 0),
		})
		if err != nil {
			return res, fmt.Errorf("dist: rank %d residual reduction: %w", rank, err)
		}
		rhoNew := red[0]
		beta := rhoNew / rho
		betaC := conj(beta)
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
			pd[i] = rd[i] + betaC*pd[i]
		}
		rho = rhoNew
		rel = sqrtRe(red[1]) / nb
		relD = sqrtRe(red[2]) / nbd
		res.Iterations++
		if opts.History {
			res.History = append(res.History, rel)
		}
	}
	if rel <= opts.Tol && relD <= opts.Tol && !canceled {
		res.Converged = true
	}
	res.Residual = rel
	res.DualResidual = relD
	if canceled {
		// ctx.Err() is stable once non-nil; rank 0 observed it before
		// raising the flag, so reading it again here is race-free.
		if rank == 0 {
			return res, fmt.Errorf("dist: solve canceled at iteration %d: %w", res.Iterations, ctx.Err())
		}
		return res, nil
	}
	if res.Converged && opts.Group != nil && rank == 0 {
		opts.Group.MarkConverged()
	}
	return res, nil
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }

func cabs2(z complex128) float64 { return real(z)*real(z) + imag(z)*imag(z) }

func norm2sq(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return s
}

func sqrtRe(z complex128) float64 {
	r := real(z)
	if r < 0 {
		return 0
	}
	return math.Sqrt(r)
}
