// Package sweep is the durable energy-sweep engine: the paper's headline
// workload is not one CBS solve but a scan of ~200 independent energies
// (Fig. 6, Fig. 11), and downstream transport analysis consumes the whole
// scan. The engine makes that workload survivable: every energy ends in a
// typed status instead of the first failure sinking the run, a bounded
// retry policy escalates solver parameters per failure class before giving
// up, and an append-only CRC-framed checkpoint journal makes a killed
// sweep resumable without re-solving completed energies.
//
// The escalation ladder, per energy (each rung bounded, each attempt a
// fresh solve on a copy of the base options, so the next energy always
// starts from the caller's parameters):
//
//   - Hankel rank saturation (rank == Nrh*Nmm): the moment subspace is too
//     small for the annulus spectrum — re-run with doubled Nrh, up to
//     two doublings (maxNrhDoublings). This rung is the only place Nrh
//     grows: core.Solve is one pass of Algorithm 1 at the Nrh it is given.
//     If the doubling overflows the problem dimension the saturated result
//     is kept and the energy marked Degraded.
//   - contour.ErrTooManyDropped: graceful degradation discarded too many
//     quadrature nodes — retry with doubled Nint so the surviving rule
//     still resolves the contour.
//   - core.ErrBadOptions / contour.ErrBadParams / first-attempt
//     core.ErrSubspaceTooLarge / comm.ErrShapeMismatch: the parameterization
//     itself is wrong — terminal, no retry.
//   - anything else (including injected chaos faults): immediate plain
//     retry until MaxAttempts is spent.
//
// What is not on this ladder is owned elsewhere (DESIGN §8): a column's
// Krylov breakdown or stagnation never leaves core.Solve as an error —
// core's own ladder (restart, GMRES, drop the pair) consumes it and only
// the overflow reaches this one, as contour.ErrTooManyDropped; a dead
// worker link is the fleet's to re-dispatch.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cbs/internal/chaos"
	"cbs/internal/comm"
	"cbs/internal/contour"
	"cbs/internal/core"
)

// Status is the terminal state of one sweep energy.
type Status string

const (
	// StatusOK is a clean solve within the caller's parameters.
	StatusOK Status = "ok"
	// StatusDegraded is a completed solve that lost something on the way:
	// quadrature contributions dropped and renormalized, or a
	// rank-saturated subspace accepted at the Nrh cap. The result is
	// usable; its diagnostics say what was given up.
	StatusDegraded Status = "degraded"
	// StatusFailed is an energy whose retry budget is spent: the terminal
	// error is recorded and the rest of the sweep is unaffected.
	StatusFailed Status = "failed"
	// StatusSkipped is an energy never attempted (or abandoned mid-retry)
	// because the sweep was canceled; it carries no journal record and
	// will be solved by a resume.
	StatusSkipped Status = "skipped"
)

// EnergyResult is the outcome of one energy.
type EnergyResult struct {
	Index       int
	Energy      float64 // hartree
	Status      Status
	Attempts    int      // solve attempts spent (0 for journal restores and skips)
	Escalations []string // ladder rungs taken, in order ("nrh 16->32", ...)
	FromJournal bool     // restored from a checkpoint record, not re-solved
	Result      *core.Result
	Err         error // terminal error (Failed), or ctx error (Skipped)
}

// Report aggregates a sweep: every energy's outcome in energy order plus
// the counts a caller branches on. A sweep with failures still returns the
// completed results — partial data is the point.
type Report struct {
	Results  []EnergyResult
	OK       int
	Degraded int
	Failed   int
	Skipped  int
	Restored int // energies restored from the journal
	Attempts int // solve attempts across the sweep (excluding restores)
}

// NewReport returns the report of a sweep nothing has happened to yet: every
// energy Skipped. Run and fleet.Coordinate both start from it, restore the
// journal into it (OpenJournal), fill it as energies finish and Tally it
// once at the end.
func NewReport(es []float64) *Report {
	r := &Report{Results: make([]EnergyResult, len(es))}
	for i, e := range es {
		r.Results[i] = EnergyResult{Index: i, Energy: e, Status: StatusSkipped}
	}
	return r
}

// OpenJournal opens the checkpoint of a sweep of es under opts, as cfg
// asks: with no CheckpointPath there is none (nil, nil); with Resume the
// journal at CheckpointPath is resumed (created if absent), otherwise a
// fresh one is created, either way under the sweep Fingerprint, so a
// journal written for other physics is refused (ErrFingerprintMismatch).
// The journal is armed with cfg.Chaos. A resumed journal is replayed into
// the report: for each energy the last intact record wins (a RetryFailed
// run appends an OK record after the Failed one it re-solved), records
// whose index is outside the energy list are ignored, and with RetryFailed
// a last record that is Failed is left out so the energy is solved again.
// A restored energy carries Attempts 0 and FromJournal; cfg.OnEnergy, when
// non-nil, observes each exactly once. Run and fleet.Coordinate both open
// their checkpoint here; the caller closes the journal.
func (r *Report) OpenJournal(es []float64, opts core.Options, cfg Config) (*Journal, error) {
	if cfg.CheckpointPath == "" {
		return nil, nil
	}
	fp := Fingerprint(cfg.OperatorDesc, es, opts)
	var (
		journal *Journal
		recs    []Record
		err     error
	)
	if cfg.Resume {
		journal, recs, err = Resume(cfg.CheckpointPath, fp)
	} else {
		journal, err = Create(cfg.CheckpointPath, fp)
	}
	if err != nil {
		return nil, err
	}
	journal.SetChaos(cfg.Chaos)
	last := make([]*Record, len(r.Results)) // per energy, its last record
	for k := range recs {
		if i := recs[k].Index; i >= 0 && i < len(last) {
			last[i] = &recs[k]
		}
	}
	for i, rec := range last {
		if rec == nil || (cfg.RetryFailed && rec.Status == StatusFailed) {
			continue
		}
		er := rec.Restore()
		er.Attempts = 0 // restored, not re-solved
		er.FromJournal = true
		r.Results[i] = er
		if cfg.OnEnergy != nil {
			cfg.OnEnergy(er)
		}
	}
	return journal, nil
}

// Tally recomputes the report's counts from its Results.
func (r *Report) Tally() {
	r.OK, r.Degraded, r.Failed, r.Skipped, r.Restored, r.Attempts = 0, 0, 0, 0, 0, 0
	for _, er := range r.Results {
		switch er.Status {
		case StatusOK:
			r.OK++
		case StatusDegraded:
			r.Degraded++
		case StatusFailed:
			r.Failed++
		default:
			r.Skipped++
		}
		if er.FromJournal {
			r.Restored++
		}
		r.Attempts += er.Attempts
	}
}

// Completed returns the solve results of every OK and Degraded energy, in
// energy order.
func (r *Report) Completed() []*core.Result {
	out := make([]*core.Result, 0, r.OK+r.Degraded)
	for _, er := range r.Results {
		if er.Result != nil {
			out = append(out, er.Result)
		}
	}
	return out
}

// Failures returns the Failed energies.
func (r *Report) Failures() []EnergyResult {
	var out []EnergyResult
	for _, er := range r.Results {
		if er.Status == StatusFailed {
			out = append(out, er)
		}
	}
	return out
}

// maxNrhDoublings bounds the rank-saturation escalation of one energy:
// its own budget, separate from MaxAttempts.
const maxNrhDoublings = 2

// SolveFunc is the per-energy solve the engine drives; cbs.Model adapts
// core.SolveContext, tests substitute fakes.
type SolveFunc func(ctx context.Context, e float64, opts core.Options) (*core.Result, error)

// Config parameterizes the engine.
type Config struct {
	// Workers is the number of concurrent energies (default 1); they
	// split the options' core share (core.Parallel.Split).
	Workers int
	// MaxAttempts bounds the failed solve attempts per energy (default 3);
	// rank-saturation escalations are budgeted separately by
	// maxNrhDoublings because a saturated solve is progress, not failure.
	// Retries are immediate.
	MaxAttempts int

	// CheckpointPath, when non-empty, journals every completed energy to
	// this file. With Resume set an existing journal is loaded first and
	// its energies are restored instead of re-solved; a journal written
	// under a different fingerprint is refused (ErrFingerprintMismatch).
	CheckpointPath string
	Resume         bool
	// OperatorDesc identifies the operator in the journal fingerprint
	// (dimensions, lattice, grid — anything that changes the physics).
	OperatorDesc string
	// RetryFailed re-solves energies whose journal record is Failed
	// instead of restoring the failure.
	RetryFailed bool

	// Chaos optionally injects sweep-level faults (per-energy solve
	// faults, checkpoint write faults, torn records); nil in production.
	Chaos *chaos.Injector

	// OnEnergy, when non-nil, is called once per energy as it reaches a
	// terminal state — solved, restored from the journal, or failed — with
	// that energy's outcome. Sweep workers call it concurrently, so it
	// must be safe for concurrent use; the serving layer feeds per-energy
	// job progress from it. Skipped energies of a canceled sweep are not
	// reported (they never reached a terminal state of their own).
	OnEnergy func(EnergyResult)
}

// normalize fills defaults.
func (c Config) normalize() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 3
	}
	return c
}

// Run executes the sweep: solve (or restore) every energy in es under the
// retry policy, journal each completed energy, and return the full
// per-energy report. The returned error is nil unless the sweep
// infrastructure itself failed (journal creation/append, fingerprint
// mismatch) or the context was canceled — per-energy solve failures are
// reported in the Report, never as a Run error. On cancellation every
// completed energy has already been checkpointed (each record is fsynced
// as it completes) and the report marks the remainder Skipped.
//
//cbs:cancellable
func Run(ctx context.Context, solve SolveFunc, es []float64, opts core.Options, cfg Config) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.normalize()
	report := NewReport(es)

	journal, err := report.OpenJournal(es, opts, cfg)
	if err != nil {
		return report, err
	}
	defer journal.Close()

	// The work list: every energy without a restored record.
	var todo []int
	for i := range es {
		if !report.Results[i].FromJournal {
			todo = append(todo, i)
		}
	}

	// A checkpoint failure is sweep-fatal: results the journal cannot
	// protect must not keep accumulating. The first one cancels the
	// remaining work; completed records stay valid.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu      sync.Mutex // guards ckptErr
		ckptErr error
	)
	opts.Parallel = opts.Parallel.Split(cfg.Workers)
	jobs := make(chan int, len(todo))
	for _, i := range todo {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if sctx.Err() != nil {
					return
				}
				er := runEnergy(sctx, solve, i, es[i], opts, cfg)
				// One merge per energy: the slice write is per-index
				// disjoint, the journal append serializes internally.
				report.Results[i] = er
				if cfg.OnEnergy != nil && er.Status != StatusSkipped {
					cfg.OnEnergy(er)
				}
				if journal != nil && er.Status != StatusSkipped {
					if err := journal.Append(RecordOf(er)); err != nil {
						mu.Lock()
						if ckptErr == nil {
							ckptErr = err
						}
						mu.Unlock()
						cancel()
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	report.Tally()
	if ckptErr != nil {
		return report, ckptErr
	}
	if err := ctx.Err(); err != nil {
		return report, fmt.Errorf("sweep: canceled after %d of %d energies: %w",
			len(es)-report.Skipped, len(es), err)
	}
	return report, nil
}

// RecordOf projects an energy outcome into its journal (and fleet wire)
// record.
func RecordOf(er EnergyResult) Record {
	rec := Record{
		Index:       er.Index,
		Energy:      er.Energy,
		Status:      er.Status,
		Attempts:    er.Attempts,
		Escalations: er.Escalations,
		Result:      EncodeResult(er.Result),
	}
	if er.Err != nil {
		rec.Error = er.Err.Error()
	}
	return rec
}

// Restore is the inverse of RecordOf: it rebuilds an energy outcome from
// its serialized record. The original error chain is flattened to an
// opaque message — sentinels do not survive the journal or the fleet wire,
// by design (a restored failure is terminal, never re-classified).
func (rec Record) Restore() EnergyResult {
	er := EnergyResult{
		Index:       rec.Index,
		Energy:      rec.Energy,
		Status:      rec.Status,
		Attempts:    rec.Attempts,
		Escalations: rec.Escalations,
		Result:      rec.Result.Decode(),
	}
	if rec.Error != "" {
		er.Err = errors.New(rec.Error)
	}
	return er
}

// runEnergy drives one energy through the retry policy. It is the repo's
// error-classification ladder: every sentinel the solver stack can surface
// must be mapped to a retry, an escalation, or a terminal failure here.
//
//cbs:cancellable
//cbs:errladder core contour comm
func runEnergy(ctx context.Context, solve SolveFunc, i int, e float64, base core.Options, cfg Config) EnergyResult {
	er := EnergyResult{Index: i, Energy: e}
	aopts := base
	if cfg.Chaos != nil {
		aopts.Chaos = cfg.Chaos
	}
	var (
		saturated    *core.Result // best rank-saturated result so far
		nrhDoublings int
		failures     int
		lastErr      error
	)
	// finish seals a completed solve; sat marks a rank-saturated subspace
	// accepted as-is (possibly missing annulus states).
	finish := func(res *core.Result, sat bool) EnergyResult {
		er.Result = res
		if res.Diagnostics.Degraded || sat {
			er.Status = StatusDegraded
		} else {
			er.Status = StatusOK
		}
		return er
	}
	skip := func(err error) EnergyResult {
		er.Status = StatusSkipped
		er.Err = err
		return er
	}
	fail := func(err error) EnergyResult {
		er.Status = StatusFailed
		er.Err = err
		return er
	}
	for {
		if err := ctx.Err(); err != nil {
			return skip(err)
		}
		er.Attempts++
		var (
			res *core.Result
			err error
		)
		//cbs:chaossite sweep.energy
		if err = cfg.Chaos.EnergyFault(i); err == nil {
			res, err = solve(ctx, e, aopts)
		}
		if err == nil {
			sat := res.Rank >= aopts.Nrh*aopts.Nmm
			if sat && nrhDoublings < maxNrhDoublings {
				// Rank saturation: the annulus holds at least as many
				// states as the moment space can represent, so some may
				// be missing. Keep the result and grow the probe block —
				// the one place Nrh grows; core.SolveContext is one pass
				// at the Nrh it is given. The escalation has its own
				// budget (maxNrhDoublings), separate from the failure
				// budget.
				saturated = res
				er.Escalations = append(er.Escalations, fmt.Sprintf("nrh %d->%d (rank saturated)", aopts.Nrh, 2*aopts.Nrh))
				aopts.Nrh *= 2
				nrhDoublings++
				continue
			}
			return finish(res, sat)
		}
		lastErr = err

		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return skip(err)
		case errors.Is(err, core.ErrSubspaceTooLarge):
			if saturated != nil {
				// The doubled probe block no longer fits the problem:
				// accept the best saturated result as Degraded rather
				// than lose the energy.
				er.Escalations = append(er.Escalations, "nrh cap: keeping saturated result")
				return finish(saturated, true)
			}
			return fail(err) // the base parameterization is wrong: terminal
		case errors.Is(err, core.ErrBadOptions), errors.Is(err, contour.ErrBadParams):
			// Both mean the energy was posed with parameters the stack
			// rejects outright; no amount of retrying reposes it.
			return fail(err)
		case errors.Is(err, contour.ErrTooManyDropped):
			er.Escalations = append(er.Escalations, fmt.Sprintf("nint %d->%d (too many dropped)", aopts.Nint, 2*aopts.Nint))
			aopts.Nint *= 2
		case errors.Is(err, comm.ErrShapeMismatch):
			// The ranks of an Ndm > 1 solve disagreed about the problem
			// shape. The decomposition is deterministic, so a retry
			// reproduces the same disagreement: terminal.
			return fail(err)
		case errors.Is(err, comm.ErrClosed):
			// A rank world torn down under a blocked rank. The world is
			// rebuilt on every attempt: plain retry.
			er.Escalations = append(er.Escalations, fmt.Sprintf("fabric rebuilt, attempt %d (transport failure)", er.Attempts))
		default:
			// Unclassified (chaos faults, operator errors): plain retry.
		}
		failures++
		if failures >= cfg.MaxAttempts {
			break
		}
	}
	if saturated != nil {
		// Retries after a saturation escalation all failed; the saturated
		// result is still a valid (if possibly incomplete) solve.
		er.Escalations = append(er.Escalations, "retries exhausted: keeping saturated result")
		return finish(saturated, true)
	}
	return fail(fmt.Errorf("sweep: energy %d (E = %g hartree) failed after %d attempts: %w", i, e, er.Attempts, lastErr))
}

// SolveOne drives a single energy through the full escalation ladder and
// returns its terminal outcome. It is the unit of work a fleet worker
// executes per assignment: the coordinator owns scheduling, journaling and
// re-dispatch; the worker owns exactly this — one energy, solved with the
// same retry policy a single-process sweep would apply. cfg is normalized
// the same way Run normalizes it.
func SolveOne(ctx context.Context, solve SolveFunc, index int, e float64, base core.Options, cfg Config) EnergyResult {
	if ctx == nil {
		ctx = context.Background()
	}
	return runEnergy(ctx, solve, index, e, base, cfg.normalize())
}
