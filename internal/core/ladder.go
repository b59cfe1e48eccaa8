package core

import (
	"math"
	"math/rand"

	"cbs/internal/chaos"
	"cbs/internal/linsolve"
	"cbs/internal/soa"
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
// quadrature point j (the worker's outer node w.z): P(z) x = b and
// P(z)^dagger xd = b on the worker's one-column planes w.bcol, w.xcol,
// w.xdcol.
//
// Rung 1 -- perturbed restart: a Krylov breakdown (vanishing <rd,r> or
// <pd,Aq>) is a property of the shadow sequence, not of the system, so the
// solve is restarted from the current iterates nudged by small seeded noise.
// Both systems keep their true solutions as fixed points; the perturbation
// only re-seeds the two-sided Lanczos recurrence. Each restart is a
// one-column block solve through the worker's plane applies, at most
// ladderRestarts of them, each a distinct deterministic chaos site
// (Attempt = 1, 2, ...).
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
func (w *blockWorker) recoverColumn(j, col int, group *linsolve.GroupStop, initial linsolve.Result, opts Options) ladderOutcome {
	b, x, xd := w.bcol, w.xcol, w.xdcol
	lopts := linsolve.Options{Tol: opts.BiCGTol, MaxIter: opts.MaxIter, Chaos: opts.Chaos}
	var out ladderOutcome
	out.residual = initial.Residual

	if initial.Breakdown {
		for attempt := 1; attempt <= ladderRestarts; attempt++ {
			perturbIterates(x, xd, b, opts.Seed, j, col, attempt)
			lopts.ChaosSite = chaos.Site{Point: j, Col: col, Attempt: attempt}
			r := linsolve.BlockBiCGDualSoA(w.apply, w.applyD, b, b, x, xd, lopts, nil, nil)[0]
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
		pr, dr := w.gmresColumn(opts)
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

// gmresColumn is rung 2 on the worker's one-column planes: GMRESDual from a
// zero guess on complex vectors, each apply copying its vector into one
// column of planes and back, and the solutions left in w.xcol, w.xdcol.
func (w *blockWorker) gmresColumn(opts Options) (primal, dual linsolve.Result) {
	n := w.bcol.N()
	b, x, xd := make([]complex128, n), make([]complex128, n), make([]complex128, n)
	for i := range b {
		b[i] = complex(w.bcol.Re[i], w.bcol.Im[i])
	}
	in, res := soa.NewBlock[float64](n, 1), soa.NewBlock[float64](n, 1)
	through := func(apply linsolve.BlockApplySoA[float64]) linsolve.Apply {
		return func(v, out []complex128) {
			for i, e := range v {
				in.Re[i], in.Im[i] = real(e), imag(e)
			}
			apply(in, res)
			for i := range out {
				out[i] = complex(res.Re[i], res.Im[i])
			}
		}
	}
	// Restarted GMRES with a short cycle stalls on the indefinite shifted
	// systems P(z); the last solver rung pays for a wide cycle (memory
	// O(restart) vectors) rather than lose the contribution.
	restart := min(4*linsolve.DefaultGMRESRestart, n)
	gopts := linsolve.Options{Tol: opts.BiCGTol, MaxIter: opts.MaxIter}
	primal, dual = linsolve.GMRESDual(through(w.apply), through(w.applyD), b, b, x, xd, restart, gopts)
	for i := range x {
		w.xcol.Re[i], w.xcol.Im[i] = real(x[i]), imag(x[i])
		w.xdcol.Re[i], w.xdcol.Im[i] = real(xd[i]), imag(xd[i])
	}
	return primal, dual
}

// perturbIterates nudges the current iterates with seeded noise scaled to
// the right-hand side: ~1e-6 * rms(b) per element. The noise depends only
// on (seed, point, column, attempt), so restarts are reproducible under any
// worker scheduling.
func perturbIterates(x, xd, b *soa.Block[float64], seed int64, j, col, attempt int) {
	mix := seed ^ int64(j)*1_000_003 ^ int64(col)*7_919 ^ int64(attempt)*104_729
	rng := rand.New(rand.NewSource(mix))
	var s float64
	for i, re := range b.Re {
		im := b.Im[i]
		s += re*re + im*im
	}
	scale := 1e-6 * math.Sqrt(s) / math.Sqrt(float64(b.N()))
	if scale == 0 {
		scale = 1e-6
	}
	for i := range x.Re {
		x.Re[i] += (rng.Float64()*2 - 1) * scale
		x.Im[i] += (rng.Float64()*2 - 1) * scale
		xd.Re[i] += (rng.Float64()*2 - 1) * scale
		xd.Im[i] += (rng.Float64()*2 - 1) * scale
	}
}

// recoverColumns runs the ladder over every failed column of the point's
// block solve, one column of w.b, w.x and w.xd at a time through the
// worker's one-column planes. Recovered solutions are written back in
// place; dropped columns are zeroed so the accumulator never sees them.
// The outcome is folded into local (the worker's per-point statistics);
// the dropped column list and the recovery operator applications are
// returned for the caller's once-per-point merge.
func (w *blockWorker) recoverColumns(j, c0 int, groups []*linsolve.GroupStop, rs []linsolve.Result, opts Options, local *PointStats) (droppedCols []int, matVecs int) {
	for cb, r := range rs {
		if r.Breakdown {
			local.Breakdowns++
		}
		if r.Converged || r.StoppedEarly {
			if r.Residual > local.MaxResidual {
				local.MaxResidual = r.Residual
			}
			continue
		}
		copyColumn(w.bcol, 0, w.b, cb)
		copyColumn(w.xcol, 0, w.x, cb)
		copyColumn(w.xdcol, 0, w.xd, cb)
		out := w.recoverColumn(j, c0+cb, groups[cb], r, opts)
		local.Restarts += out.restarts
		local.Fallbacks += out.fallbacks
		local.Iterations += out.iterations
		if out.dropped {
			local.Dropped++
			droppedCols = append(droppedCols, c0+cb)
			w.xcol.Zero()
			w.xdcol.Zero()
		} else {
			local.Converged++
			if out.residual > local.MaxResidual {
				local.MaxResidual = out.residual
			}
		}
		copyColumn(w.x, cb, w.xcol, 0)
		copyColumn(w.xd, cb, w.xdcol, 0)
		matVecs += out.matVecs
	}
	return droppedCols, matVecs
}

// copyColumn copies column sc of src into column dc of dst (same rows).
func copyColumn(dst *soa.Block[float64], dc int, src *soa.Block[float64], sc int) {
	dnb, snb := dst.NB(), src.NB()
	for i := range dst.N() {
		dst.Re[i*dnb+dc], dst.Im[i*dnb+dc] = src.Re[i*snb+sc], src.Im[i*snb+sc]
	}
}
