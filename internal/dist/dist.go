// Package dist implements the bottom layer of the paper's hierarchical
// parallelism: the block dual-BiCG solve of one quadrature point,
// P(z) X = V, is domain-decomposed into z-slabs, one SPMD rank per domain.
// Every rank runs the one block recurrence of internal/linsolve over its
// slab's rows; this package supplies only what the decomposition adds, as
// the MPI code does: the rank-local P(z) apply (a ring halo exchange of Nf
// boundary planes x nb columns with a Bloch phase twist at the cell seam,
// and one allreduce of every column's nonlocal projector coefficients) and
// the reductions (each dot or norm step folds all columns' partial sums in
// one allreduce — the global communication the paper identifies as the
// large-scale bottleneck). Ranks are goroutines of one process on a
// comm.World (channels stand in for MPI, DESIGN §2), one world per block
// solve; the reduction sums in rank order, so a solve's bits do not depend
// on scheduling.
package dist

import (
	"context"
	"errors"
	"fmt"
	"math/cmplx"
	"sync"

	"cbs/internal/chaos"
	"cbs/internal/comm"
	"cbs/internal/hamiltonian"
	"cbs/internal/linsolve"
	"cbs/internal/qep"
	"cbs/internal/soa"
)

// Solver holds the per-domain precomputation for one QEP.
type Solver struct {
	Q     *qep.Problem
	Ndm   int
	ranks []*rankState
	inj   *chaos.Injector

	// What the rank-local apply reads of the operator: the stencil
	// coefficients of E - H0, the half-width nf, the rows of a plane, the
	// depth of one halo (nf planes) and each projector's channel strength.
	coef         soa.StencilCoef
	nf, ny, halo int
	projH        []float64
}

// SetChaos installs a deterministic fault injector (nil disables it). Every
// World created by subsequent solves inherits it, so halo-exchange payloads
// become corruptible test subjects. Not safe to change concurrently with a
// running solve.
func (s *Solver) SetChaos(inj *chaos.Injector) { s.inj = inj }

// rankState is the static per-rank data.
type rankState struct {
	planes int // z planes of the slab
	n      int // local rows
	offset int // global row of the slab's first row
	// The row kernel's view of the slab extended by Nf halo planes on each
	// side, and the local potential on it (halo rows unused).
	stencil *soa.Stencil
	vloc    []float64
	// Projector support segments restricted to this slab, indices localized.
	segs []projSeg
}

type projSeg struct {
	proj int // projector index (for the coefficient exchange layout)
	off  int // cell offset slot 0..2
	idx  []int32
	val  []float64
}

// NewSolver prepares an ndm-domain decomposition of the QEP. It needs the
// FD-grid operator's slab geometry; any other backend is refused.
func NewSolver(q *qep.Problem, ndm int) (*Solver, error) {
	op, ok := q.B.(*hamiltonian.Operator)
	if !ok {
		return nil, fmt.Errorf("dist: the Ndm > 1 domain decomposition requires the FD-grid backend (backend %q has no slab geometry)", q.B.Descriptor())
	}
	if ndm < 1 {
		return nil, fmt.Errorf("dist: ndm = %d < 1", ndm)
	}
	g := op.G
	slabs, err := g.Decompose(ndm)
	if err != nil {
		return nil, err
	}
	nf := op.St.Nf
	for _, s := range slabs {
		if s.NPlanes() < nf {
			return nil, fmt.Errorf("dist: slab with %d planes is thinner than the stencil half-width %d", s.NPlanes(), nf)
		}
	}
	xp, xm := make([][]int32, nf), make([][]int32, nf)
	yp, ym := make([][]int32, nf), make([][]int32, nf)
	for d := 1; d <= nf; d++ {
		xp[d-1], xm[d-1] = op.NeighborX(d)
		yp[d-1], ym[d-1] = op.NeighborY(d)
	}
	plane := g.PlaneSize()
	sv := &Solver{Q: q, Ndm: ndm, nf: nf, ny: g.Ny, halo: nf * plane,
		coef: soa.StencilCoef{Shift: q.E, Sign: -1, Diag: op.Diag()}}
	for d := 1; d <= nf; d++ {
		sv.coef.Cx[d-1], sv.coef.Cy[d-1], sv.coef.Cz[d-1] = -op.Kx(d), -op.Ky(d), -op.Kz(d)
	}
	for pi := range op.Projs {
		sv.projH = append(sv.projH, op.Projs[pi].H)
	}
	for r := 0; r < ndm; r++ {
		planes := slabs[r].NPlanes()
		rs := &rankState{planes: planes, offset: slabs[r].Z0 * plane, n: planes * plane}
		rs.stencil = soa.NewStencil(g.Nx, g.Ny, planes+2*nf, nf, xp, xm, yp, ym)
		rs.vloc = make([]float64, rs.n+2*sv.halo)
		copy(rs.vloc[sv.halo:], op.VLoc[rs.offset:rs.offset+rs.n])
		for pi := range op.Projs {
			p := &op.Projs[pi]
			for off := 0; off < 3; off++ {
				s := &p.Supp[off]
				seg := projSeg{proj: pi, off: off}
				for i, gidx := range s.Idx {
					if iz := int(gidx) / plane; iz >= slabs[r].Z0 && iz < slabs[r].Z1 {
						seg.idx = append(seg.idx, gidx-int32(rs.offset))
						seg.val = append(seg.val, s.Val[i])
					}
				}
				if len(seg.idx) > 0 {
					rs.segs = append(rs.segs, seg)
				}
			}
		}
		sv.ranks = append(sv.ranks, rs)
	}
	return sv, nil
}

// MemoryBytes is what one block solve of width nb allocates across the
// ranks, n-scaled buffers only: each rank's six Krylov planes over its slab
// rows, its two halo-extended planes, one halo message and the projector
// coefficients of every column.
func (s *Solver) MemoryBytes(nb int) int64 {
	var b int64
	for _, rs := range s.ranks {
		b += int64(6*rs.n+2*(rs.n+2*s.halo)+s.halo+3*len(s.projH)) * int64(nb) * 16
	}
	return b
}

// Stats reports the communication traffic of one solve.
type Stats struct {
	Messages int64
	Bytes    int64
}

// errCanceled is how the ranks other than 0 leave a canceled solve; rank 0
// speaks for the group with the context's error.
var errCanceled = errors.New("dist: solve canceled by rank 0")

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

// spmd runs body on every rank of a fresh world and returns the world's
// traffic and the error that speaks for the group. A rank that fails closes
// the world, so every other rank unblocks with ErrClosed.
func (s *Solver) spmd(body func(rank int, c *comm.Communicator) error) (Stats, error) {
	world, err := comm.NewWorld(s.Ndm)
	if err != nil {
		return Stats{}, err
	}
	defer world.Close()
	world.SetChaos(s.inj)
	errs := make([]error, s.Ndm)
	var wg sync.WaitGroup
	for r := 0; r < s.Ndm; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := world.Comm(rank)
			if err == nil {
				err = body(rank, c)
			}
			if err != nil {
				errs[rank] = err
				world.Close()
			}
		}(r)
	}
	wg.Wait()
	return Stats{Messages: world.Messages(), Bytes: world.Bytes()}, groupErr(errs)
}

// checkShape validates full-length n x nb blocks.
func (s *Solver) checkShape(nb int, blocks ...*soa.Block[float64]) error {
	for _, b := range blocks {
		if b.N() != s.Q.Dim() || b.NB() != nb {
			return fmt.Errorf("dist: block is %dx%d, want %dx%d", b.N(), b.NB(), s.Q.Dim(), nb)
		}
	}
	return nil
}

// rows is the rank's slab rows of a full-length block.
func (rs *rankState) rows(full *soa.Block[float64]) *soa.Block[float64] {
	return full.Rows(rs.offset, rs.offset+rs.n)
}

// SolveBlock runs the dual block solve P(z) X = B, P(z)^dagger Xd = B on the
// full-length n x nb blocks, each rank iterating linsolve's block recurrence
// over its slab rows; x and xd hold the initial guesses and are overwritten.
// The results are rank 0's (every rank's are the same), one per column.
//
// Cancellation and the group stop: rank 0 alone holds groups and polls ctx,
// and its decisions ride reductions the iteration already makes, so every
// rank leaves at the same step and each convergence is marked once. On
// cancellation the returned error wraps ctx.Err().
//
// Fault propagation: a rank whose communication call fails closes the
// world, so every other rank unblocks with ErrClosed; the originating error
// is the one returned.
func (s *Solver) SolveBlock(ctx context.Context, z complex128, b, x, xd *soa.Block[float64], opts linsolve.Options, groups []*linsolve.GroupStop) ([]linsolve.Result, Stats, error) {
	nb := b.NB()
	if err := s.checkShape(nb, b, x, xd); err != nil {
		return nil, Stats{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, fmt.Errorf("dist: solve not started: %w", err)
	}
	zd := 1 / cmplx.Conj(z) // the dagger apply is P(1/conj z)
	var results []linsolve.Result
	stats, err := s.spmd(func(rank int, c *comm.Communicator) error {
		rs := s.ranks[rank]
		ra := s.newRankApply(rank, c, nb)
		bl := rs.rows(b)
		g := groups
		if rank != 0 {
			g = nil
		}
		ws := linsolve.NewWorkspaceSoA[float64](rs.n, nb)
		res, err := ws.SolveRank(
			func(v, out *soa.Block[float64]) { ra.applyTo(z, v, out) },
			func(v, out *soa.Block[float64]) { ra.applyTo(zd, v, out) },
			bl, bl, rs.rows(x), rs.rows(xd), s.Q.Dim(), opts, g,
			func(sums []complex128) error { return ra.reduce(ctx, sums) })
		if err != nil {
			return err
		}
		if rank == 0 {
			results = res
		}
		return nil
	})
	return results, stats, err
}

// reduce completes one reduction step across the ranks in rank order. Rank
// 0 appends its cancel decision, so all ranks see it in the same result and
// leave together.
func (a *rankApply) reduce(ctx context.Context, sums []complex128) error {
	if a.err != nil {
		return a.err
	}
	var flag complex128
	if a.rank == 0 && ctx.Err() != nil {
		flag = 1
	}
	out, err := a.c.AllreduceSum(append(append(a.red[:0], sums...), flag))
	if err != nil {
		return fmt.Errorf("dist: rank %d reduction: %w", a.rank, err)
	}
	if out[len(sums)] != 0 {
		if a.rank == 0 {
			return fmt.Errorf("dist: solve canceled: %w", ctx.Err())
		}
		return errCanceled
	}
	copy(sums, out)
	return nil
}

// ApplyBlock performs one distributed application out = P(z) V of a
// full-length n x nb block: one halo exchange and one projector allreduce
// per rank (tests and the scaling experiments measure a single round).
func (s *Solver) ApplyBlock(z complex128, v, out *soa.Block[float64]) (Stats, error) {
	nb := v.NB()
	if err := s.checkShape(nb, v, out); err != nil {
		return Stats{}, err
	}
	return s.spmd(func(rank int, c *comm.Communicator) error {
		rs := s.ranks[rank]
		return s.newRankApply(rank, c, nb).apply(z, rs.rows(v), rs.rows(out))
	})
}
