package linsolve

// dualRecurrence is the per-column scalar state of the nb independent dual
// BiCG recurrences of one block solve.
type dualRecurrence struct {
	rho, alpha, beta, dots []complex128
	nrmB, nrmBD, rel, relD []float64
	nrm2, nrm2d            []float64 // norm scratch (frozen columns keep rel)
	active                 []bool
	stop                   []bool // group-stop polls, completed with the residual reduction

	results []Result
}

func (rc *dualRecurrence) reserve(nb int) {
	if cap(rc.rho) >= nb {
		return
	}
	z := make([]complex128, 4*nb) // one backing array per element type
	rc.rho, rc.alpha, rc.beta, rc.dots = z[:nb:nb], z[nb:2*nb:2*nb], z[2*nb:3*nb:3*nb], z[3*nb:]
	f := make([]float64, 6*nb)
	rc.nrmB, rc.nrmBD, rc.rel = f[:nb:nb], f[nb:2*nb:2*nb], f[2*nb:3*nb:3*nb]
	rc.relD, rc.nrm2, rc.nrm2d = f[3*nb:4*nb:4*nb], f[4*nb:5*nb:5*nb], f[5*nb:]
	b := make([]bool, 2*nb)
	rc.active, rc.stop = b[:nb:nb], b[nb:]
	rc.results = make([]Result, nb)
}

// memoryBytes is the resident size of the per-column state: four complex
// scalars, six float64 norms and the two flags per column.
func (rc *dualRecurrence) memoryBytes() int64 {
	return int64(cap(rc.rho)) * (4*16 + 6*8 + 2)
}

// run is the one masked dual-BiCG loop: nb mathematically independent dual
// recurrences (Saad, Iterative Methods, Sec. 7.3) advanced in lockstep over
// the blocks bound to w, from the initial guesses bound there. Columns
// converge, stop early (per-column GroupStop in groups, which may be nil or
// hold nil entries) and break down independently: a finished column is
// masked out of the updates (its x_c, xd_c freeze) while the rest keep
// iterating, exactly reproducing the per-column BiCGDual results.
//
// Every decision reads only reduced scalars, so the ranks of a domain-
// decomposed solve, each running this loop over its own rows, take the same
// steps: the group stop is polled where the groups are held (rank 0) and
// completed with the residual reduction, and a reduction error ends the
// loop at the same step on every rank. n is the global row count (for the
// default iteration cap). The returned slice aliases w.results.
func (w *WorkspaceSoA[F]) run(n, nb int, opts Options, groups []*GroupStop) ([]Result, error) {
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = defaultMaxIter(n)
	}
	rho, alpha, beta, dots := w.rho[:nb], w.alpha[:nb], w.beta[:nb], w.dots[:nb]
	nrmB, nrmBD := w.nrmB[:nb], w.nrmBD[:nb]
	rel, relD := w.rel[:nb], w.relD[:nb]
	nrm2, nrm2d := w.nrm2[:nb], w.nrm2d[:nb]
	active, stop := w.active[:nb], w.stop[:nb]
	results := w.results[:nb]

	group := func(c int) *GroupStop {
		if groups == nil {
			return nil
		}
		return groups[c]
	}
	pollStops := func() {
		for c := range stop {
			g := group(c)
			stop[c] = active[c] && g != nil && g.ShouldStop()
		}
	}

	for c := range results {
		results[c] = Result{MatVecApplied: 2}
		active[c] = true
	}
	if err := w.start(nrmB, nrmBD); err != nil {
		return results, err
	}
	for c := range nrmB {
		if nrmB[c] == 0 {
			nrmB[c] = 1
		}
		if nrmBD[c] == 0 {
			nrmBD[c] = 1
		}
	}
	pollStops()
	if err := w.residuals(rho, rel, relD, stop); err != nil {
		return results, err
	}
	if opts.Chaos != nil {
		// Injected per-column Lanczos breakdowns (deterministic per
		// (point, column, attempt) site, so every rank draws alike; see
		// internal/chaos).
		for c := range rho {
			site := opts.ChaosSite
			site.Col += c
			//cbs:chaossite bicg.block-breakdown
			if opts.Chaos.Breakdown(site) {
				rho[c] = 0
			}
		}
	}
	for c := range rel {
		rel[c] /= nrmB[c]
		relD[c] /= nrmBD[c]
	}
	if opts.History {
		results[0].History = append(results[0].History, rel[0])
	}

	remaining := nb
	for iter := 0; iter < maxIter && remaining > 0; iter++ {
		// Per-column state checks, mirroring the single-vector loop head.
		for c := 0; c < nb; c++ {
			if !active[c] {
				continue
			}
			if rel[c] <= opts.Tol && relD[c] <= opts.Tol {
				results[c].Converged = true
				if g := group(c); g != nil {
					g.MarkConverged()
				}
				active[c] = false
				remaining--
				continue
			}
			if stop[c] && rel[c] <= opts.looseTol() && relD[c] <= opts.looseTol() {
				results[c].StoppedEarly = true
				active[c] = false
				remaining--
				continue
			}
			if cabs2(rho[c]) < breakdownTol {
				results[c].Breakdown = true
				active[c] = false
				remaining--
			}
		}
		if remaining == 0 {
			break
		}
		w.apply()
		if err := w.directionDots(dots); err != nil {
			return results, err
		}
		for c := 0; c < nb; c++ {
			alpha[c] = 0
			if !active[c] {
				continue
			}
			results[c].MatVecApplied += 2
			if cabs2(dots[c]) < breakdownTol {
				results[c].Breakdown = true
				active[c] = false
				remaining--
				continue
			}
			alpha[c] = rho[c] / dots[c]
		}
		if remaining == 0 {
			break
		}
		w.alphaStep(alpha)
		pollStops()
		if err := w.residuals(dots, nrm2, nrm2d, stop); err != nil {
			w.finishAlpha()
			return results, err
		}
		for c := 0; c < nb; c++ {
			beta[c] = 0
			if !active[c] {
				continue
			}
			beta[c] = dots[c] / rho[c]
			rho[c] = dots[c]
			rel[c] = nrm2[c] / nrmB[c]
			relD[c] = nrm2d[c] / nrmBD[c]
			results[c].Iterations++
		}
		w.betaStep(beta, active)
		if opts.History && active[0] {
			results[0].History = append(results[0].History, rel[0])
		}
	}
	for c := 0; c < nb; c++ {
		if active[c] && rel[c] <= opts.Tol && relD[c] <= opts.Tol {
			results[c].Converged = true
			if g := group(c); g != nil {
				g.MarkConverged()
			}
		}
		results[c].Residual = rel[c]
		results[c].DualResidual = relD[c]
	}
	return results, nil
}
