package sweep

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cbs/internal/chaos"
	"cbs/internal/comm"
	"cbs/internal/contour"
	"cbs/internal/core"
	"cbs/internal/qep"
	"cbs/internal/tb"
)

// testOptions are small, recognizable solver parameters for the fake-solver
// tests: Nrh*Nmm = 12 is the saturation rank.
func testOptions() core.Options {
	o := core.DefaultOptions()
	o.Nint = 8
	o.Nmm = 4
	o.Nrh = 3
	o.BiCGTol = 1e-10
	o.Seed = 42
	return o
}

// okResult is a fake unsaturated solve result.
func okResult(e float64, opts core.Options) *core.Result {
	return &core.Result{
		Energy: e,
		Rank:   opts.Nrh*opts.Nmm - 1,
		Pairs: []core.Eigenpair{
			{Lambda: complex(0.8, 0), K: complex(0.3, 0), Residual: 1e-11},
		},
	}
}

// indexOf recovers the energy index from the fake energies 0, 1, 2, ...
func indexOf(e float64) int { return int(e) }

func testEnergies(n int) []float64 {
	es := make([]float64, n)
	for i := range es {
		es[i] = float64(i)
	}
	return es
}

// TestSweepAllOK: the trivial sweep — every energy solves first try.
func TestSweepAllOK(t *testing.T) {
	var calls atomic.Int64
	solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		calls.Add(1)
		return okResult(e, opts), nil
	}
	es := testEnergies(4)
	report, err := Run(context.Background(), solve, es, testOptions(), Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.OK != 4 || report.Degraded+report.Failed+report.Skipped != 0 || report.Attempts != 4 {
		t.Fatalf("report = %+v, want 4 OK in 4 attempts", report)
	}
	if calls.Load() != 4 {
		t.Errorf("solver called %d times, want 4", calls.Load())
	}
	for i, er := range report.Results {
		if er.Index != i || er.Energy != es[i] || er.Status != StatusOK || er.Result == nil {
			t.Errorf("result %d malformed: %+v", i, er)
		}
	}
	if got := report.Completed(); len(got) != 4 {
		t.Errorf("Completed() returned %d results, want 4", len(got))
	}
}

// TestSweepQuadratureEscalation: contour.ErrTooManyDropped must double Nint
// on the retry; succeeding with more quadrature points is a clean OK (no
// accuracy was given up).
func TestSweepQuadratureEscalation(t *testing.T) {
	base := testOptions()
	solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		if opts.Nint < 2*base.Nint {
			return nil, contour.ErrTooManyDropped
		}
		return okResult(e, opts), nil
	}
	report, err := Run(context.Background(), solve, testEnergies(1), base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	er := report.Results[0]
	if er.Status != StatusOK || er.Attempts != 2 || len(er.Escalations) != 1 {
		t.Errorf("got %+v, want OK after one nint doubling", er)
	}
}

// TestSweepRankSaturationEscalation: a rank-saturated solve (rank ==
// Nrh*Nmm) must trigger an Nrh doubling; if the doubled run is clean the
// energy is OK and the final result is the unsaturated one.
func TestSweepRankSaturationEscalation(t *testing.T) {
	base := testOptions()
	solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		res := okResult(e, opts)
		if opts.Nrh == base.Nrh {
			res.Rank = opts.Nrh * opts.Nmm // saturated
		}
		return res, nil
	}
	report, err := Run(context.Background(), solve, testEnergies(1), base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	er := report.Results[0]
	if er.Status != StatusOK {
		t.Errorf("status = %s, want ok (the doubled run was clean)", er.Status)
	}
	if er.Attempts != 2 || len(er.Escalations) != 1 {
		t.Errorf("attempts = %d, escalations = %v; want 2 attempts, 1 nrh rung", er.Attempts, er.Escalations)
	}
	if er.Result.Rank >= 2*base.Nrh*base.Nmm {
		t.Errorf("final result still saturated: rank %d", er.Result.Rank)
	}
}

// TestNrhRungGrowsSaturatedProbeBlock: on a real backend — a 3x3
// tight-binding slab at the band centre, many open channels — a probe
// block of one column with two moments saturates the Hankel rank, and the
// ladder's nrh rung, the only place Nrh grows, re-solves with a larger
// block.
func TestNrhRungGrowsSaturatedProbeBlock(t *testing.T) {
	b, err := tb.NewSlab(tb.SlabConfig{Nx: 3, Ny: 3, Onsite: 0, Hopping: -1, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		return core.SolveContext(ctx, qep.NewBackend(b, e), opts)
	}
	opts := core.DefaultOptions()
	opts.Nint = 16
	opts.Nrh = 1
	opts.Nmm = 2
	report, err := Run(context.Background(), solve, []float64{0}, opts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	er := report.Results[0]
	if er.Result == nil || len(er.Escalations) == 0 || er.Escalations[0] != "nrh 1->2 (rank saturated)" {
		t.Fatalf("escalations = %v (status %s, err %v), want an nrh 1->2 rung first", er.Escalations, er.Status, er.Err)
	}
	if er.Result.Expanded <= 1 {
		t.Errorf("kept result ran with Nrh %d, want the grown probe block", er.Result.Expanded)
	}
}

// TestSweepSaturationExhausted: an energy that saturates at every Nrh rung
// keeps the last saturated result and reports Degraded — data with a caveat
// beats no data.
func TestSweepSaturationExhausted(t *testing.T) {
	var calls atomic.Int64
	solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		calls.Add(1)
		res := okResult(e, opts)
		res.Rank = opts.Nrh * opts.Nmm
		return res, nil
	}
	base := testOptions()
	report, err := Run(context.Background(), solve, testEnergies(1), base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	er := report.Results[0]
	if er.Status != StatusDegraded || er.Result == nil {
		t.Fatalf("got %+v, want a degraded saturated result", er)
	}
	if calls.Load() != 3 { // base, x2, x4
		t.Errorf("solver called %d times, want 3 (two doublings)", calls.Load())
	}
	if er.Result.Rank != 4*base.Nrh*base.Nmm {
		t.Errorf("kept rank %d, want the final (largest) saturated subspace %d", er.Result.Rank, 4*base.Nrh*base.Nmm)
	}
}

// TestSweepSubspaceCapAfterEscalation: when the doubled Nrh overflows the
// problem (core.ErrSubspaceTooLarge) the best saturated result is kept as
// Degraded instead of failing the energy.
func TestSweepSubspaceCapAfterEscalation(t *testing.T) {
	base := testOptions()
	solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		if opts.Nrh > base.Nrh {
			return nil, core.ErrSubspaceTooLarge
		}
		res := okResult(e, opts)
		res.Rank = opts.Nrh * opts.Nmm
		return res, nil
	}
	report, err := Run(context.Background(), solve, testEnergies(1), base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	er := report.Results[0]
	if er.Status != StatusDegraded || er.Result == nil || er.Result.Rank != base.Nrh*base.Nmm {
		t.Fatalf("got %+v, want the saturated base-Nrh result kept as degraded", er)
	}
}

// TestSweepTerminalErrors: a first-attempt ErrSubspaceTooLarge or
// ErrBadOptions means the caller's parameterization is wrong — fail
// immediately, no retry.
func TestSweepTerminalErrors(t *testing.T) {
	for _, terminal := range []error{core.ErrSubspaceTooLarge, core.ErrBadOptions} {
		var calls atomic.Int64
		solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
			calls.Add(1)
			return nil, terminal
		}
		report, err := Run(context.Background(), solve, testEnergies(1), testOptions(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		er := report.Results[0]
		if er.Status != StatusFailed || !errors.Is(er.Err, terminal) {
			t.Errorf("%v: got status %s err %v, want immediate failure", terminal, er.Status, er.Err)
		}
		if calls.Load() != 1 {
			t.Errorf("%v: solver called %d times, want 1 (terminal)", terminal, calls.Load())
		}
	}
}

// TestSweepPartialResults: one unrecoverable energy must come back Failed
// with its terminal error while every other energy is OK; the sweep itself
// returns no error. This is the acceptance criterion: never an empty result
// set because one energy is pathological.
func TestSweepPartialResults(t *testing.T) {
	cause := errors.New("operator blew up")
	solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		if indexOf(e) == 2 {
			return nil, cause
		}
		return okResult(e, opts), nil
	}
	report, err := Run(context.Background(), solve, testEnergies(5), testOptions(), Config{Workers: 2, MaxAttempts: 3})
	if err != nil {
		t.Fatalf("per-energy failure leaked into the Run error: %v", err)
	}
	if report.OK != 4 || report.Failed != 1 {
		t.Fatalf("report = %+v, want 4 OK / 1 failed", report)
	}
	er := report.Results[2]
	if er.Status != StatusFailed || !errors.Is(er.Err, cause) || er.Attempts != 3 {
		t.Errorf("failed energy: %+v, want 3 attempts ending in the cause", er)
	}
	if fs := report.Failures(); len(fs) != 1 || fs[0].Index != 2 {
		t.Errorf("Failures() = %+v", fs)
	}
}

// TestSweepResumeRestoresWithoutResolving: a completed journal restores
// every energy with zero solver calls; a mismatched fingerprint is refused.
func TestSweepResumeRestoresWithoutResolving(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	es := testEnergies(3)
	opts := testOptions()
	solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		return okResult(e, opts), nil
	}
	cfg := Config{CheckpointPath: path, OperatorDesc: "fake-op"}
	if _, err := Run(context.Background(), solve, es, opts, cfg); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	counting := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		calls.Add(1)
		return okResult(e, opts), nil
	}
	cfg.Resume = true
	report, err := Run(context.Background(), counting, es, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Errorf("resume re-solved %d journaled energies", calls.Load())
	}
	if report.Restored != 3 || report.OK != 3 || report.Attempts != 0 {
		t.Errorf("report = %+v, want 3 restored OK with 0 attempts", report)
	}
	for i, er := range report.Results {
		if !er.FromJournal || er.Result == nil {
			t.Errorf("energy %d not restored from the journal: %+v", i, er)
		}
	}

	// Same journal, different solver parameters: refuse to resume.
	o2 := opts
	o2.Nint *= 2
	if _, err := Run(context.Background(), counting, es, o2, cfg); !errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("resume under changed options: err = %v, want ErrFingerprintMismatch", err)
	}
}

// TestSweepRetryFailed: a Failed journal record is restored verbatim by
// default; with RetryFailed the energy is re-solved.
func TestSweepRetryFailed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	es := testEnergies(2)
	opts := testOptions()
	flaky := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		if indexOf(e) == 1 {
			return nil, errors.New("transient machine trouble")
		}
		return okResult(e, opts), nil
	}
	cfg := Config{CheckpointPath: path, OperatorDesc: "fake-op", MaxAttempts: 2}
	report, err := Run(context.Background(), flaky, es, opts, cfg)
	if err != nil || report.Failed != 1 {
		t.Fatalf("seed sweep: err %v, report %+v", err, report)
	}

	healthy := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		return okResult(e, opts), nil
	}
	cfg.Resume = true
	report, err = Run(context.Background(), healthy, es, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 1 || !report.Results[1].FromJournal {
		t.Errorf("default resume must restore the failure verbatim: %+v", report.Results[1])
	}

	cfg.RetryFailed = true
	report, err = Run(context.Background(), healthy, es, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 || report.OK != 2 || report.Results[1].FromJournal {
		t.Errorf("RetryFailed resume must re-solve the failed energy: %+v", report.Results[1])
	}
}

// TestSweepCancellation: cancelling mid-sweep marks the unreached energies
// Skipped, returns a wrapped ctx error, and leaves the completed energies
// checkpointed in the journal.
func TestSweepCancellation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	es := testEnergies(4)
	opts := testOptions()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		if indexOf(e) == 1 {
			cancel() // the "SIGINT" lands while energy 1 is in flight
		}
		return okResult(e, opts), nil
	}
	cfg := Config{CheckpointPath: path, OperatorDesc: "fake-op"}
	report, err := Run(ctx, solve, es, opts, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	// Energies 0 and 1 completed (the cancel lands after energy 1's solve
	// returns); 2 and 3 must be skipped, not silently dropped.
	if report.Skipped != 2 || report.OK != 2 {
		t.Fatalf("report = %+v, want 2 OK / 2 skipped", report)
	}
	for _, i := range []int{2, 3} {
		if report.Results[i].Status != StatusSkipped {
			t.Errorf("energy %d: status %s, want skipped", i, report.Results[i].Status)
		}
	}

	// The journal holds exactly the completed energies, ready for resume.
	fp := Fingerprint(cfg.OperatorDesc, es, opts)
	recs, lerr := Load(path, fp)
	if lerr != nil {
		t.Fatal(lerr)
	}
	if len(recs) != 2 {
		t.Fatalf("journal holds %d records after cancellation, want 2", len(recs))
	}

	// Resuming finishes the job without re-solving the first two.
	var calls atomic.Int64
	counting := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		calls.Add(1)
		return okResult(e, opts), nil
	}
	cfg.Resume = true
	report, err = Run(context.Background(), counting, es, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.OK != 4 || report.Restored != 2 || calls.Load() != 2 {
		t.Errorf("resume: report %+v with %d solves, want 2 restored + 2 solved", report, calls.Load())
	}
}

// TestSweepChaosEnergyFault: an injected hard fault on one energy exhausts
// its retries and fails only that energy — and because the fault is
// deterministic in (seed, index), the failure is reproducible.
func TestSweepChaosEnergyFault(t *testing.T) {
	solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		return okResult(e, opts), nil
	}
	cfg := Config{
		Workers: 2,
		Chaos:   chaos.New(7, chaos.Config{EnergyFault: 1, Energies: []int{1}}),
	}
	report, err := Run(context.Background(), solve, testEnergies(3), testOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 1 || report.OK != 2 {
		t.Fatalf("report = %+v, want the faulted energy failed and the rest OK", report)
	}
	if er := report.Results[1]; !errors.Is(er.Err, chaos.ErrInjected) || er.Attempts != 3 {
		t.Errorf("faulted energy: %+v, want 3 exhausted attempts on the injected fault", er)
	}
}

// TestSweepCheckpointFaultStopsSweep: a failed checkpoint append is
// sweep-fatal — the run reports ErrCheckpoint rather than keep producing
// results it cannot protect.
func TestSweepCheckpointFaultStopsSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		return okResult(e, opts), nil
	}
	cfg := Config{
		CheckpointPath: path,
		OperatorDesc:   "fake-op",
		Chaos:          chaos.New(7, chaos.Config{CheckpointFault: 1, Energies: []int{1}}),
	}
	report, err := Run(context.Background(), solve, testEnergies(4), testOptions(), cfg)
	if !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("err = %v, want ErrCheckpoint", err)
	}
	if report.Skipped == 0 {
		t.Error("checkpoint failure did not stop the remaining energies")
	}
}

// TestSweepOnEnergyProgress: the progress callback fires once per
// terminal energy — for solved, failed, and journal-restored energies
// alike — with the energy's real outcome, and never for skips.
func TestSweepOnEnergyProgress(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.journal")
	es := testEnergies(4)
	failing := errors.New("persistent fault")
	solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		if indexOf(e) == 2 {
			return nil, failing
		}
		return okResult(e, opts), nil
	}

	var mu sync.Mutex
	seen := map[int][]EnergyResult{}
	record := func(er EnergyResult) {
		mu.Lock()
		seen[er.Index] = append(seen[er.Index], er)
		mu.Unlock()
	}
	cfg := Config{Workers: 2, MaxAttempts: 2, CheckpointPath: path, OnEnergy: record}
	if _, err := Run(context.Background(), solve, es, testOptions(), cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if len(seen[i]) != 1 {
			t.Fatalf("energy %d reported %d times, want 1", i, len(seen[i]))
		}
	}
	if seen[2][0].Status != StatusFailed {
		t.Errorf("energy 2 reported %s, want failed", seen[2][0].Status)
	}
	if seen[1][0].Status != StatusOK || seen[1][0].FromJournal {
		t.Errorf("energy 1 reported %+v, want fresh OK", seen[1][0])
	}

	// Resume: restored energies are reported too, flagged FromJournal;
	// the failed energy re-solves (RetryFailed) and reports fresh.
	seen = map[int][]EnergyResult{}
	cfg.Resume = true
	cfg.RetryFailed = true
	healed := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		return okResult(e, opts), nil
	}
	if _, err := Run(context.Background(), healed, es, testOptions(), cfg); err != nil {
		t.Fatal(err)
	}
	restored, fresh := 0, 0
	for i := 0; i < 4; i++ {
		if len(seen[i]) != 1 {
			t.Fatalf("resume: energy %d reported %d times, want 1", i, len(seen[i]))
		}
		if seen[i][0].FromJournal {
			restored++
		} else {
			fresh++
		}
	}
	if restored != 3 || fresh != 1 {
		t.Errorf("resume reported %d restored + %d fresh, want 3 + 1", restored, fresh)
	}
}

// TestSweepTransportRetry: comm.ErrClosed means the rank world died under
// the solve, not that the physics failed — the ladder retries plainly (the
// world is rebuilt on every attempt) and a clean second attempt is OK, not
// Degraded.
func TestSweepTransportRetry(t *testing.T) {
	for _, transient := range []error{comm.ErrClosed} {
		var calls atomic.Int64
		solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
			if calls.Add(1) == 1 {
				return nil, fmt.Errorf("halo exchange: %w", transient)
			}
			return okResult(e, opts), nil
		}
		report, err := Run(context.Background(), solve, testEnergies(1), testOptions(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		er := report.Results[0]
		if er.Status != StatusOK || er.Attempts != 2 {
			t.Errorf("%v: status %s after %d attempts (err %v), want OK on the retry", transient, er.Status, er.Attempts, er.Err)
		}
		if len(er.Escalations) != 1 {
			t.Errorf("%v: escalations %v, want the one fabric-rebuilt rung", transient, er.Escalations)
		}
	}
}

// TestSweepShapeMismatchTerminal: comm.ErrShapeMismatch is a protocol bug
// (ranks disagree about vector lengths), not a transient fault — retrying
// would fail identically, so the energy fails immediately and typed.
func TestSweepShapeMismatchTerminal(t *testing.T) {
	var calls atomic.Int64
	solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		calls.Add(1)
		return nil, fmt.Errorf("allreduce: %w", comm.ErrShapeMismatch)
	}
	report, err := Run(context.Background(), solve, testEnergies(1), testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	er := report.Results[0]
	if er.Status != StatusFailed || !errors.Is(er.Err, comm.ErrShapeMismatch) {
		t.Errorf("status %s err %v, want immediate typed failure", er.Status, er.Err)
	}
	if calls.Load() != 1 {
		t.Errorf("solver called %d times, want 1 (terminal)", calls.Load())
	}
}

// TestSweepSplitsTheShare: the energies in flight share the host. At
// GOMAXPROCS 4 a Workers 2 sweep at Top 2 hands each solve a share of 2,
// so the derived Mid is 1 and the sweep holds 4 point workers, not 8; a
// Workers 1 sweep keeps the whole host and Mid 2. The layout is read back
// through MemoryEstimate, which counts exactly the workers solveAll starts.
func TestSweepSplitsTheShare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	b, err := tb.NewSlab(tb.SlabConfig{Nx: 3, Ny: 3, Onsite: 0, Hopping: -1, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Nint = 8
	opts.Nmm = 2
	opts.Nrh = 2
	opts.Parallel = core.Parallel{Top: 2}
	for _, tc := range []struct{ workers, mid int }{{2, 1}, {1, 2}} {
		var calls, wrong atomic.Int64
		solve := func(ctx context.Context, e float64, o core.Options) (*core.Result, error) {
			q := qep.NewBackend(b, e)
			want := o
			want.Parallel = core.Parallel{Top: 2, Mid: tc.mid}
			calls.Add(1)
			if core.MemoryEstimate(q, o) != core.MemoryEstimate(q, want) {
				wrong.Add(1)
			}
			return core.SolveContext(ctx, q, o)
		}
		if _, err := Run(context.Background(), solve, []float64{-3, -1, 1, 3}, opts, Config{Workers: tc.workers}); err != nil {
			t.Fatal(err)
		}
		if calls.Load() == 0 || wrong.Load() != 0 {
			t.Errorf("Workers %d: %d of %d solves not laid out as {Top: 2, Mid: %d}",
				tc.workers, wrong.Load(), calls.Load(), tc.mid)
		}
	}
}

// TestSweepImpossibleDecompositionTerminal: a domain decomposition the
// backend cannot take (the tight-binding slab has no FD slab geometry) is
// a bad parameterization, not a transient fault: the energy fails at the
// first attempt, typed.
func TestSweepImpossibleDecompositionTerminal(t *testing.T) {
	b, err := tb.NewSlab(tb.SlabConfig{Nx: 3, Ny: 3, Onsite: 0, Hopping: -1, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		return core.SolveContext(ctx, qep.NewBackend(b, e), opts)
	}
	opts := core.DefaultOptions()
	opts.Nint = 8
	opts.Nmm = 2
	opts.Nrh = 2
	opts.Parallel = core.Parallel{Ndm: 2}
	report, err := Run(context.Background(), solve, []float64{0}, opts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	er := report.Results[0]
	if er.Status != StatusFailed || er.Attempts != 1 || !errors.Is(er.Err, core.ErrBadOptions) {
		t.Errorf("status %s after %d attempts (err %v), want failed at the first attempt wrapping core.ErrBadOptions",
			er.Status, er.Attempts, er.Err)
	}
}
