package core

import (
	"math"
	"math/rand"

	"cbs/internal/chaos"
	"cbs/internal/linsolve"
	"cbs/internal/qep"
	"cbs/internal/soa"
	"cbs/internal/zlinalg"
)

// ladderRestarts bounds the perturbed-restart rung of the recovery ladder.
const ladderRestarts = 2

// ladderOutcome reports what one column's trip through the recovery ladder
// cost and where it ended.
type ladderOutcome struct {
	restarts   int
	fallbacks  int
	dropped    bool
	iterations int
	matVecs    int
	residual   float64 // final relative residual of the kept solution
}

// recoverColumn is the per-column recovery ladder of a failed dual solve at
// quadrature point j (outer node z): P(z) x = b and P(z)^dagger xd = b.
//
// Rung 1 -- perturbed restart: a Krylov breakdown (vanishing <rd,r> or
// <pd,Aq>) is a property of the shadow sequence, not of the system, so the
// solve is restarted from the current iterates nudged by small seeded noise.
// Both systems keep their true solutions as fixed points; the perturbation
// only re-seeds the two-sided Lanczos recurrence. At most ladderRestarts
// attempts, each a distinct deterministic chaos site (Attempt = 1, 2, ...).
//
// Rung 2 -- breakdown-free fallback: restarted GMRES(m) on the primal and
// dual systems from a zero guess. GMRES has no shadow vector and cannot
// break down; it is the last solver rung. Plain non-convergence (iteration
// cap without breakdown) skips rung 1 and lands here directly, since
// re-seeding a stagnated but healthy recurrence does not help.
//
// Rung 3 -- graceful degradation: the caller drops the (point, column) pair
// symmetrically from both circles and renormalizes the column's surviving
// quadrature weights (contour.RenormFactor).
//
// On success the column's majority-rule controller is marked converged (the
// recovery solves run ungrouped: a fresh restart sits far above the loose
// straggler tolerance, and the ladder must not be halted by the majority it
// is trying to rejoin).
func recoverColumn(q *qep.Problem, z complex128, b, x, xd []complex128, j, col int, group *linsolve.GroupStop, initial linsolve.Result, opts Options) ladderOutcome {
	apply := func(v, out []complex128) { q.ApplyBlock(z, v, out, 1) }
	applyD := func(v, out []complex128) { q.ApplyDaggerBlock(z, v, out, 1) }
	lopts := linsolve.Options{Tol: opts.BiCGTol, MaxIter: opts.MaxIter, Chaos: opts.Chaos}
	var out ladderOutcome
	out.residual = initial.Residual

	if initial.Breakdown {
		for attempt := 1; attempt <= ladderRestarts; attempt++ {
			perturbIterates(x, xd, b, opts.Seed, j, col, attempt)
			lopts.ChaosSite = chaos.Site{Point: j, Col: col, Attempt: attempt}
			r := linsolve.BiCGDual(apply, applyD, b, b, x, xd, lopts)
			out.restarts++
			out.iterations += r.Iterations
			out.matVecs += r.MatVecApplied
			out.residual = r.Residual
			if r.Converged {
				group.MarkConverged()
				return out
			}
			if !r.Breakdown {
				break // stagnation, not breakdown: re-seeding will not help
			}
		}
	}

	//cbs:chaossite ladder.fallback
	if !opts.Chaos.FallbackFail(j, col) {
		for i := range x {
			x[i] = 0
			xd[i] = 0
		}
		gopts := linsolve.Options{Tol: opts.BiCGTol, MaxIter: opts.MaxIter}
		// Restarted GMRES with a short cycle stalls on the indefinite
		// shifted systems P(z); the last solver rung pays for a wide cycle
		// (memory O(restart) vectors) rather than lose the contribution.
		restart := 4 * linsolve.DefaultGMRESRestart
		if n := len(b); restart > n {
			restart = n
		}
		pr, dr := linsolve.GMRESDual(apply, applyD, b, b, x, xd, restart, gopts)
		out.fallbacks++
		out.iterations += pr.Iterations + dr.Iterations
		out.matVecs += pr.MatVecApplied
		out.residual = math.Max(pr.Residual, dr.Residual)
		if pr.Converged && dr.Converged {
			group.MarkConverged()
			return out
		}
	} else {
		out.fallbacks++
	}

	out.dropped = true
	out.residual = 0 // a dropped pair contributes nothing to the budget
	return out
}

// perturbIterates nudges the current iterates with seeded noise scaled to
// the right-hand side: ~1e-6 * rms(b) per element. The noise depends only
// on (seed, point, column, attempt), so restarts are reproducible under any
// worker scheduling.
func perturbIterates(x, xd, b []complex128, seed int64, j, col, attempt int) {
	mix := seed ^ int64(j)*1_000_003 ^ int64(col)*7_919 ^ int64(attempt)*104_729
	rng := rand.New(rand.NewSource(mix))
	scale := 1e-6 * zlinalg.Norm2(b) / math.Sqrt(float64(len(b)))
	if scale == 0 {
		scale = 1e-6
	}
	for i := range x {
		x[i] += complex((rng.Float64()*2-1)*scale, (rng.Float64()*2-1)*scale)
		xd[i] += complex((rng.Float64()*2-1)*scale, (rng.Float64()*2-1)*scale)
	}
}

// recoverBlockColumns runs the ladder over every failed column of one
// blocked solve: column cb of the right-hand-side planes b and of the
// row-major interleaved solutions x, xd. Recovered solutions are scattered
// back in place; dropped columns are zeroed so the accumulator never sees
// them. Worker-local scratch (bcol, xcol, xdcol; length n each) is supplied
// by the caller so the per-point loop stays allocation-free. The outcome is
// folded into local (the worker's per-point statistics); the dropped column
// list and the recovery operator applications are returned for the caller's
// once-per-point merge.
func recoverBlockColumns(q *qep.Problem, z complex128, b *soa.Block[float64], x, xd []complex128, j, c0 int, groups []*linsolve.GroupStop, rs []linsolve.Result, opts Options, local *PointStats, bcol, xcol, xdcol []complex128) (droppedCols []int, matVecs int) {
	n, nb := b.N(), b.NB()
	for cb := 0; cb < nb; cb++ {
		r := rs[cb]
		if r.Breakdown {
			local.Breakdowns++
		}
		if r.Converged || r.StoppedEarly {
			if r.Residual > local.MaxResidual {
				local.MaxResidual = r.Residual
			}
			continue
		}
		for i := 0; i < n; i++ {
			bcol[i] = complex(b.Re[i*nb+cb], b.Im[i*nb+cb])
			xcol[i] = x[i*nb+cb]
			xdcol[i] = xd[i*nb+cb]
		}
		out := recoverColumn(q, z, bcol, xcol, xdcol, j, c0+cb, groups[cb], r, opts)
		local.Restarts += out.restarts
		local.Fallbacks += out.fallbacks
		local.Iterations += out.iterations
		if out.dropped {
			local.Dropped++
			droppedCols = append(droppedCols, c0+cb)
			for i := 0; i < n; i++ {
				x[i*nb+cb] = 0
				xd[i*nb+cb] = 0
			}
		} else {
			local.Converged++
			if out.residual > local.MaxResidual {
				local.MaxResidual = out.residual
			}
			for i := 0; i < n; i++ {
				x[i*nb+cb] = xcol[i]
				xd[i*nb+cb] = xdcol[i]
			}
		}
		matVecs += out.matVecs
	}
	return droppedCols, matVecs
}
