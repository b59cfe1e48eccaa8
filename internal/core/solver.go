// Package core is the paper's primary contribution: the complex band
// structure (CBS) solver that expresses the real-space-grid Kohn-Sham
// equation of a bulk unit cell as a quadratic eigenvalue problem and
// computes only the annulus eigenvalues lambda_min < |lambda| < 1/lambda_min
// with the Sakurai-Sugiura method (Algorithm 1), the ring contour of Fig. 2,
// the dual-system BiCG halving of Sec. 3.2, and the three layers of
// hierarchical parallelism of Sec. 3.3 (right-hand sides / quadrature
// points / domain decomposition).
package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"cbs/internal/chaos"
	"cbs/internal/contour"
	"cbs/internal/dist"
	"cbs/internal/linsolve"
	"cbs/internal/operator"
	"cbs/internal/qep"
	"cbs/internal/soa"
	"cbs/internal/ssm"
	"cbs/internal/zlinalg"
)

// Parallel configures the three layers of the hierarchy. Each field is a
// worker count; 1 means serial at that layer. A Mid of 0 is derived from
// the core share: share/Top, at most Nint. The share (GOMAXPROCS unless
// Split divided it) is not serialized, so a shipped layout resolves on its
// own host. Top and Mid only reschedule the same arithmetic (each top block
// commits its points in point order), so every Top/Mid layout returns the
// bits of the serial one, unless LoadBalanceStop with Mid > 1 lets timing
// decide when columns stop.
type Parallel struct {
	Top   int // concurrent right-hand-side blocks (no communication)
	Mid   int // concurrent quadrature points (no communication; 0: derived)
	Ndm   int // domains of the z-slab decomposition (halo + allreduce traffic)
	share int // cores this work may use (0: GOMAXPROCS)
}

// Cores returns the goroutines this work may keep busy: its share, or
// GOMAXPROCS when no Split gave it one.
func (p Parallel) Cores() int { return cmp.Or(p.share, runtime.GOMAXPROCS(0)) }

// Split returns the layout of one of k solves that run at once: each gets
// Cores()/k, at least 1.
func (p Parallel) Split(k int) Parallel {
	p.share = max(p.Cores()/max(k, 1), 1)
	return p
}

// resolve returns the layout a solve with nrh columns and nint points runs:
// Top and Ndm below 1 mean 1, Top is capped at nrh, a Mid of 0 becomes
// Cores()/Top, and Mid is capped at nint, so no worker is started (or
// counted by MemoryEstimate) that could never get a column block or a
// point.
func (p Parallel) resolve(nrh, nint int) Parallel {
	p.Top = max(min(p.Top, nrh), 1)
	if p.Mid == 0 {
		p.Mid = p.Cores() / p.Top
	}
	p.Mid = max(min(p.Mid, nint), 1)
	p.Ndm = max(p.Ndm, 1)
	return p
}

// Options collects the solver parameters in the paper's notation; the
// defaults (via DefaultOptions) are the paper's Sec. 4 settings.
type Options struct {
	Nint      int     // quadrature points per circle (paper: 32)
	Nmm       int     // moment blocks (paper: 8)
	Nrh       int     // right-hand sides (paper: 16 or 64)
	Delta     float64 // Hankel SVD threshold (paper: 1e-10)
	LambdaMin float64 // annulus inner radius (paper: 0.5)
	BiCGTol   float64 // linear-solve tolerance (paper: 1e-10)
	MaxIter   int     // BiCG iteration cap (0: dimension-derived)

	// ResidualTol filters extracted eigenpairs by the relative QEP
	// residual ||P(lambda) psi|| / ||psi||.
	ResidualTol float64

	// LoadBalanceStop enables the majority stopping rule across quadrature
	// points (paper Sec. 3.3).
	LoadBalanceStop bool

	// TrackHistories records the BiCG residual history of the first
	// right-hand side at every quadrature point (Fig. 5 data).
	TrackHistories bool

	Seed     int64 // probe block seed (deterministic runs)
	Parallel Parallel

	// Chaos optionally injects deterministic faults into the contour solve
	// (Krylov breakdowns, fallback failures, fatal point faults, halo
	// corruption); nil in production. See internal/chaos and the
	// chaos-smoke CI job.
	Chaos *chaos.Injector
}

// DefaultOptions returns the paper's parameter set.
func DefaultOptions() Options {
	return Options{
		Nint:        32,
		Nmm:         8,
		Nrh:         16,
		Delta:       1e-10,
		LambdaMin:   0.5,
		BiCGTol:     1e-10,
		ResidualTol: 1e-5,
		Seed:        1,
		Parallel:    Parallel{Top: 1, Ndm: 1},
	}
}

// Eigenpair is one CBS solution at the solved energy.
type Eigenpair struct {
	Lambda   complex128   // Bloch factor e^{ika}
	K        complex128   // complex wave vector (1/bohr)
	Psi      []complex128 // unit-cell eigenvector (unit norm)
	Residual float64      // relative QEP residual
}

// Timings is the paper's Table 1 cost breakdown.
type Timings struct {
	Setup       time.Duration // contour + probe preparation ("read matrix data" analog)
	SolveLinear time.Duration // step 1: the 2*Nint*Nrh linear systems
	Extract     time.Duration // steps 2-3: moments, Hankel, small EVP
}

// PointStats records the linear-solve behaviour at one quadrature point.
type PointStats struct {
	Z            complex128
	Iterations   int       // Krylov iterations summed over this point's columns
	Converged    int       // converged columns (including recovered ones)
	StoppedEarly int       // columns halted by the majority rule
	History      []float64 // first column's residual history (optional)

	// Recovery-ladder activity (see internal/core/ladder.go).
	Breakdowns  int     // columns whose first BiCG pass hit a Krylov breakdown
	Restarts    int     // perturbed BiCG restarts attempted
	Fallbacks   int     // escalations to restarted GMRES
	Dropped     int     // columns dropped from the quadrature after the ladder
	MaxResidual float64 // worst final relative residual among kept columns
}

// Result is the outcome of one CBS solve at a fixed energy.
type Result struct {
	Energy float64 // hartree

	Pairs    []Eigenpair // annulus eigenpairs passing the residual filter
	AllPairs []Eigenpair // every extracted pair (diagnostics)
	Rank     int         // Hankel numerical rank m-hat
	Sigma    []float64   // Hankel singular values

	Points    []PointStats // per outer-circle quadrature point
	Timings   Timings
	MatVecs   int   // operator applications across all solves
	CommBytes int64 // bottom-layer traffic (0 when Ndm = 1)
	Expanded  int   // the Nrh the solve ran with (the sweep ladder grows it on rank saturation)

	// Diagnostics summarizes recovery-ladder activity and graceful
	// degradation (JSON-ready; exported by cmd/cbs --diagnostics).
	Diagnostics Diagnostics
}

// Solve computes the CBS eigenpairs of the QEP at its energy.
func Solve(q *qep.Problem, opts Options) (*Result, error) {
	//cbs:ctxescape public pre-context wrapper: callers without a ctx get the root by definition
	return SolveContext(context.Background(), q, opts)
}

// SolveContext is one pass of Algorithm 1 under a context: cancellation or
// an expired deadline stops the in-flight contour workers promptly (each
// worker re-checks the context before taking the next quadrature point, and
// the distributed bottom layer folds the cancellation into its
// per-iteration reduction) and the returned error wraps ctx.Err(). A
// rank-saturated subspace is returned as-is; growing the probe block is
// the sweep ladder's decision (internal/sweep).
func SolveContext(ctx context.Context, q *qep.Problem, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.Parallel = opts.Parallel.resolve(opts.Nrh, opts.Nint)
	if opts.Nint < 1 || opts.Nmm < 1 || opts.Nrh < 1 {
		return nil, fmt.Errorf("%w: Nint/Nmm/Nrh must be positive, got %d/%d/%d", ErrBadOptions, opts.Nint, opts.Nmm, opts.Nrh)
	}
	if opts.Nrh*opts.Nmm > q.Dim() {
		return nil, fmt.Errorf("%w: Nrh*Nmm = %d > dimension %d", ErrSubspaceTooLarge, opts.Nrh*opts.Nmm, q.Dim())
	}
	tSetup := time.Now()
	ring, err := contour.NewRing(opts.LambdaMin, opts.Nint)
	if err != nil {
		return nil, err
	}
	n := q.Dim()
	v := probeBlock(n, opts.Nrh, opts.Seed)
	acc, err := ssm.NewAccumulator(n, opts.Nrh, opts.Nmm)
	if err != nil {
		return nil, err
	}
	var distSolver *dist.Solver
	if opts.Parallel.Ndm > 1 {
		distSolver, err = dist.NewSolver(q, opts.Parallel.Ndm)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadOptions, err)
		}
		distSolver.SetChaos(opts.Chaos)
	}
	res := &Result{Energy: q.E, Expanded: opts.Nrh}
	res.Points = make([]PointStats, opts.Nint)
	for j := range res.Points {
		res.Points[j].Z = ring.Outer[j].Z
	}
	res.Timings.Setup = time.Since(tSetup)

	// ---- Step 1: the linear systems, hierarchically parallel ------------
	tSolve := time.Now()
	if err := solveAll(ctx, q, ring, v, acc, distSolver, opts, res); err != nil {
		return nil, err
	}
	res.Timings.SolveLinear = time.Since(tSolve)

	// ---- Steps 2-3: extraction -------------------------------------------
	tExtract := time.Now()
	ext, err := ssm.ExtractFromMoments(acc.Moments(), v, ssm.Options{Nmm: opts.Nmm, Delta: opts.Delta})
	if err != nil {
		return nil, err
	}
	res.Rank = ext.Rank
	res.Sigma = ext.SingularValues
	res.Diagnostics.SVDSweeps = ext.SVDSweeps
	a := q.CellLength()
	for j, lam := range ext.Lambdas {
		psi := ext.Vectors.Col(j)
		pair := Eigenpair{
			Lambda:   lam,
			K:        qep.KFromLambda(lam, a),
			Psi:      psi,
			Residual: q.Residual(lam, psi),
		}
		res.AllPairs = append(res.AllPairs, pair)
		if ring.Contains(lam) && pair.Residual <= opts.ResidualTol {
			res.Pairs = append(res.Pairs, pair)
		}
	}
	res.Timings.Extract = time.Since(tExtract)
	res.finalizeDiagnostics(opts)
	return res, nil
}

// probeBlock builds the deterministic random probe V.
func probeBlock(n, nrh int, seed int64) *zlinalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	v := zlinalg.NewMatrix(n, nrh)
	for i := range v.Data {
		v.Data[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

// solveAll runs the 2*Nint*Nrh linear systems (halved to Nint*Nrh actual
// BiCG solves by the dual trick) under the top/middle/bottom hierarchy.
//
// Each middle-layer worker pulls one quadrature point from the shared queue
// and drives its top-block's whole column block through its blockWorker
// (solvePoints over an n x nb block, nb = columns of the top block), so the
// operator tables stream through memory once per BiCG iteration for all nb
// right-hand sides. Per-point statistics are accumulated worker-locally and
// merged under the global mutex once per (worker, point) instead of once
// per column; the moment accumulator is likewise fed the point's solution
// planes in one call. Those commits go in point order within a top block
// (top blocks own disjoint columns), so every Top/Mid layout adds the
// moments up in the serial order and returns the serial bits.
func solveAll(ctx context.Context, q *qep.Problem, ring *contour.Ring, v *zlinalg.Matrix, acc *ssm.Accumulator, distSolver *dist.Solver, opts Options, res *Result) error {
	n := q.Dim()
	nint := opts.Nint
	par := opts.Parallel

	// The first fatal error cancels the whole contour: every worker
	// re-checks cctx before taking its next quadrature point, so in-flight
	// work winds down promptly instead of draining the queue. A caller
	// timeout flows through the same context.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Per-column majority controllers across the quadrature points.
	groups := make([]*linsolve.GroupStop, opts.Nrh)
	for c := range groups {
		groups[c] = linsolve.NewGroupStop(nint, opts.LoadBalanceStop)
	}

	// Top layer: split the Nrh columns into contiguous blocks.
	blocks := splitRange(opts.Nrh, par.Top)
	sh := &pointMerge{res: res, droppedByCol: make([]int, opts.Nrh)}
	setErr := func(err error) {
		sh.mu.Lock()
		if sh.firstErr == nil {
			sh.firstErr = err
		}
		sh.mu.Unlock()
		cancel()
	}
	var topWG sync.WaitGroup
	for _, blk := range blocks {
		topWG.Add(1)
		go func(c0, c1 int) {
			defer topWG.Done()
			// The block's right-hand sides, packed into planes once and
			// shared read-only by this block's workers.
			nb := c1 - c0
			b := soa.NewBlock[float64](n, nb)
			for i := 0; i < n; i++ {
				for c, e := range v.Data[i*v.Cols+c0 : i*v.Cols+c1] {
					b.Re[i*nb+c], b.Im[i*nb+c] = real(e), imag(e)
				}
			}
			// Middle layer: quadrature points from a shared queue,
			// committed in point order.
			points := make(chan int, nint)
			for j := 0; j < nint; j++ {
				points <- j
			}
			close(points)
			order := newPointOrder(nint, par.Mid, n, nb, func(p *solvedPoint) {
				// Accumulate: primal -> outer node, dual -> the paired
				// inner node (P(zOut)^dagger = P(zIn)).
				acc.AddPlanes(ring.Outer[p.j].Z, ring.Outer[p.j].W, c0, p.x)
				acc.AddPlanes(ring.Inner[p.j].Z, ring.Inner[p.j].W, c0, p.xd)
				sh.merge(p)
			})
			var midWG sync.WaitGroup
			for w := 0; w < par.Mid; w++ {
				midWG.Add(1)
				go func() {
					defer midWG.Done()
					bw := newBlockWorker(q, b, distSolver)
					if err := solvePoints(cctx, bw, ring, points, order, groups[c0:c1], c0, opts); err != nil {
						setErr(err)
					}
				}()
			}
			midWG.Wait()
		}(blk[0], blk[1])
	}
	topWG.Wait()
	if sh.firstErr != nil {
		return sh.firstErr
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: solve canceled: %w", err)
	}
	// Graceful degradation: renormalize each degraded column's surviving
	// quadrature weights (a uniform column scaling, because the moments are
	// weight-linear). A column that lost more than half its nodes is beyond
	// recovery and fails the solve (contour.ErrTooManyDropped).
	if len(sh.droppedPairs) > 0 {
		factors := make([]float64, opts.Nrh)
		for c := range factors {
			f, err := contour.RenormFactor(nint, sh.droppedByCol[c])
			if err != nil {
				return fmt.Errorf("core: probe column %d: %w", c, err)
			}
			factors[c] = f
		}
		acc.ScaleColumns(factors)
		// Top blocks append in the order they finish; the ledger goes out
		// (and into journal records) in (point, column) order.
		slices.SortFunc(sh.droppedPairs, func(a, b DroppedPair) int {
			return cmp.Or(cmp.Compare(a.Point, b.Point), cmp.Compare(a.Col, b.Col))
		})
		res.Diagnostics.DroppedPairs = sh.droppedPairs
		res.Diagnostics.RenormFactors = factors
	}
	return nil
}

// pointMerge is what the point-loop workers share: the result they merge
// into once per (worker, point), the first fatal error, and the
// graceful-degradation ledger of contributions dropped by the recovery
// ladder, per column (for weight renormalization) and as (point, column)
// pairs (for diagnostics). mu guards all of it.
type pointMerge struct {
	mu           sync.Mutex
	res          *Result
	firstErr     error
	droppedByCol []int
	droppedPairs []DroppedPair
}

// merge folds one committed point's statistics and dropped pairs into the
// shared result.
func (sh *pointMerge) merge(p *solvedPoint) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	mergePointStats(&sh.res.Points[p.j], &p.stats)
	for _, c := range p.dropped {
		sh.droppedByCol[c]++
		sh.droppedPairs = append(sh.droppedPairs, DroppedPair{Point: p.j, Col: c})
	}
	sh.res.MatVecs += p.matVecs
	sh.res.CommBytes += p.commBytes
}

// solvedPoint is one quadrature point's contribution, solved and through
// the recovery ladder, until it commits: the primal and dual solution
// planes the accumulator reads and the worker-local statistics the merge
// folds in. Its x and xd are a worker's solution planes, which travel with
// it when it is parked.
type solvedPoint struct {
	j         int
	x, xd     *soa.Block[float64]
	stats     PointStats
	dropped   []int
	matVecs   int
	commBytes int64
}

// pointOrder commits one top block's points in point order. The commit is
// the only floating-point step whose order the schedule could change (the
// moment sums), so ordering it makes every Mid return the bits of Mid 1.
// A worker whose point is not next does not wait for it: it parks the
// point and goes on with a spare pair of solution planes, and whoever
// commits the point before a parked one commits that one too and frees its
// planes. A worker that is slow (descheduled, or on a costly point) thus
// holds the others up only once they have run Mid points ahead of it.
type pointOrder struct {
	apply  func(*solvedPoint) // one commit; called in point order, one at a time
	mu     sync.Mutex
	next   int            // the lowest point not committed yet
	parked []*solvedPoint // by point: solved out of turn, not committed yet
	spares chan *solvedPoint
}

// newPointOrder allocates the spares up front, n x nb plane pairs: Mid of
// them, none for a lone worker, which always holds the next point. The
// spares channel has room for every plane pair of the block, so a commit
// never blocks freeing one.
func newPointOrder(nint, mid, n, nb int, apply func(*solvedPoint)) *pointOrder {
	o := &pointOrder{apply: apply, parked: make([]*solvedPoint, nint), spares: make(chan *solvedPoint, 2*mid)}
	for range pointSpares(mid) {
		o.spares <- &solvedPoint{x: soa.NewBlock[float64](n, nb), xd: soa.NewBlock[float64](n, nb)}
	}
	return o
}

// pointSpares is the number of spare solution-plane pairs of one top block
// with mid workers.
func pointSpares(mid int) int {
	if mid < 2 {
		return 0
	}
	return mid
}

// commit commits p if its point is next, then every parked point that
// follows it, and hands p back for the next point. Otherwise it parks p
// and hands back a spare, waiting for one to be freed if need be. It
// reports false when ctx ends first: every path that abandons a point (a
// fatal error, the caller's cancel) cancels ctx. The worker holding the
// next point never waits here, so the block always moves. Only that
// worker applies, one point at a time, and outside mu, so a worker that
// parks meanwhile does not wait for the accumulator.
func (o *pointOrder) commit(ctx context.Context, p *solvedPoint) (*solvedPoint, bool) {
	o.mu.Lock()
	o.parked[p.j] = p
	if p.j != o.next {
		o.mu.Unlock()
		select {
		case s := <-o.spares:
			return s, true
		case <-ctx.Done():
			return nil, false
		}
	}
	for q := p; q != nil; {
		o.parked[q.j] = nil
		o.mu.Unlock()
		o.apply(q)
		if q != p {
			o.spares <- q
		}
		o.mu.Lock()
		o.next++
		q = nil
		if o.next < len(o.parked) {
			q = o.parked[o.next]
		}
	}
	o.mu.Unlock()
	return p, true
}

// blockWorker is one middle-layer worker's solve state, allocated once and
// reused across its quadrature points so the steady-state loop is
// allocation-free: the solution planes the block solve writes and the
// accumulator reads, the recovery ladder's one-column planes, and the
// Krylov workspace. Every backend iterates on the same planes through its
// operator.Planes applies; with Ndm > 1 the block goes to the
// domain-decomposed solver instead, whose ranks run the same recurrence
// over their slab rows. MemoryEstimate counts exactly these buffers.
type blockWorker struct {
	q                 *qep.Problem
	planes            operator.Planes     // q.B's plane applies
	z                 complex128          // the point being solved; the applies read it
	b                 *soa.Block[float64] // the top block's right-hand sides
	x, xd             *soa.Block[float64]
	bcol, xcol, xdcol *soa.Block[float64] // n x 1: one column through the ladder

	ws            *linsolve.WorkspaceSoA[float64] // nil under Ndm > 1
	apply, applyD linsolve.BlockApplySoA[float64]
	dist          *dist.Solver
}

func newBlockWorker(q *qep.Problem, b *soa.Block[float64], distSolver *dist.Solver) *blockWorker {
	n, nb := b.N(), b.NB()
	w := &blockWorker{
		q: q, planes: q.B, b: b, dist: distSolver,
		x: soa.NewBlock[float64](n, nb), xd: soa.NewBlock[float64](n, nb),
		bcol: soa.NewBlock[float64](n, 1), xcol: soa.NewBlock[float64](n, 1), xdcol: soa.NewBlock[float64](n, 1),
	}
	w.apply = func(v, out *soa.Block[float64]) { qep.ApplyBlockSoA(w.q, w.planes, w.z, v, out) }
	w.applyD = func(v, out *soa.Block[float64]) { qep.ApplyDaggerBlockSoA(w.q, w.planes, w.z, v, out) }
	if distSolver == nil {
		w.ws = linsolve.NewWorkspaceSoA[float64](n, nb)
	}
	return w
}

// blockWorkerBytes is the resident size of the n-scaled buffers one
// blockWorker holds itself: the solution planes x, xd and the three
// one-column blocks. The block solve's Krylov planes come on top
// (MemoryEstimate).
func blockWorkerBytes(n, nb int64) int64 { return (2*n*nb + 3*n) * 16 }

// solve runs the dual block solve P(z) X = B, P(z)^dagger Xd = B from a zero
// guess and leaves the solutions in w.x, w.xd. commBytes is the decomposed
// solver's bottom-layer traffic; err is fatal to the contour (a rank world
// failure or a cancellation inside a decomposed solve), never a per-column
// solver outcome.
func (w *blockWorker) solve(ctx context.Context, z complex128, lopts linsolve.Options, groups []*linsolve.GroupStop) (rs []linsolve.Result, commBytes int64, err error) {
	w.z = z
	w.x.Zero()
	w.xd.Zero()
	if w.dist != nil {
		var stats dist.Stats
		if rs, stats, err = w.dist.SolveBlock(ctx, z, w.b, w.x, w.xd, lopts, groups); err != nil {
			return nil, 0, err
		}
		return rs, stats.Bytes, nil
	}
	return linsolve.BlockBiCGDualSoA(w.apply, w.applyD, w.b, w.b, w.x, w.xd, lopts, groups, w.ws), 0, nil
}

// solvePoints is the one quadrature-point loop: it drains the point queue
// with the worker's layout — one dual block solve per point, the recovery
// ladder on its failed columns (local-serial on every layout: recovery is
// rare, and a breakdown is a property of the Krylov sequence, not of the
// decomposition), then the point's commit in point order (one accumulator
// feed and one locked merge).
func solvePoints(ctx context.Context, w *blockWorker, ring *contour.Ring, points <-chan int, order *pointOrder, colGroups []*linsolve.GroupStop, c0 int, opts Options) error {
	p := &solvedPoint{x: w.x, xd: w.xd}
	for j := range points {
		if ctx.Err() != nil {
			// Canceled by another worker's fatal error (which reports it)
			// or by the caller (which solveAll reports).
			return nil
		}
		//cbs:chaossite solver.point
		if injErr := opts.Chaos.PointFault(j); injErr != nil {
			return fmt.Errorf("core: fatal fault at quadrature point %d: %w", j, injErr)
		}
		zOut := ring.Outer[j].Z
		lopts := linsolve.Options{
			Tol:       opts.BiCGTol,
			MaxIter:   opts.MaxIter,
			History:   opts.TrackHistories && c0 == 0,
			Chaos:     opts.Chaos,
			ChaosSite: chaos.Site{Point: j, Col: c0},
		}
		rs, commBytes, err := w.solve(ctx, zOut, lopts, colGroups)
		if err != nil {
			return err
		}
		// Recovery ladder for failed columns, before the moment
		// accumulation: dropped columns are zeroed in place so the
		// accumulator never sees them.
		var local PointStats
		dropped, recMV := w.recoverColumns(j, c0, colGroups, rs, opts, &local)
		matVecs := recMV
		for _, r := range rs {
			local.Iterations += r.Iterations
			if r.Converged {
				local.Converged++
			}
			if r.StoppedEarly {
				local.StoppedEarly++
			}
			matVecs += r.MatVecApplied
		}
		if lopts.History {
			local.History = rs[0].History
		}
		*p = solvedPoint{j: j, x: w.x, xd: w.xd, stats: local, dropped: dropped, matVecs: matVecs, commBytes: commBytes}
		var ok bool
		if p, ok = order.commit(ctx, p); !ok {
			return nil // canceled: reported as at the top of the loop
		}
		w.x, w.xd = p.x, p.xd
	}
	return nil
}

// mergePointStats folds a worker-local per-point record into the shared
// one; the caller holds the global mutex.
func mergePointStats(ps, local *PointStats) {
	ps.Iterations += local.Iterations
	ps.Converged += local.Converged
	ps.StoppedEarly += local.StoppedEarly
	ps.Breakdowns += local.Breakdowns
	ps.Restarts += local.Restarts
	ps.Fallbacks += local.Fallbacks
	ps.Dropped += local.Dropped
	if local.MaxResidual > ps.MaxResidual {
		ps.MaxResidual = local.MaxResidual
	}
	if local.History != nil && ps.History == nil {
		ps.History = local.History
	}
}

// splitRange divides [0,n) into at most p contiguous non-empty blocks.
func splitRange(n, p int) [][2]int {
	if p > n {
		p = n
	}
	out := make([][2]int, 0, p)
	base, extra := n/p, n%p
	at := 0
	for i := 0; i < p; i++ {
		sz := base
		if i < extra {
			sz++
		}
		out = append(out, [2]int{at, at + sz})
		at += sz
	}
	return out
}
