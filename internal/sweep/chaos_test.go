package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"

	"cbs/internal/chaos"
	"cbs/internal/core"
	"cbs/internal/hamiltonian"
	"cbs/internal/lattice"
	"cbs/internal/qep"
)

// chaosSeed reads the sweep-chaos seed matrix (CBS_CHAOS_SEED, default 1),
// so the CI job exercises several deterministic fault patterns with one
// test body.
func chaosSeed() int64 {
	if s := os.Getenv("CBS_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 1
}

// realSolve adapts the actual SS solver on a small Al(100) system, the same
// model the core tests use.
func realSolve(t *testing.T) SolveFunc {
	t.Helper()
	st, err := lattice.AlBulk100(1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := hamiltonian.Build(st, hamiltonian.Config{Nx: 6, Ny: 6, Nz: 8, Nf: 4})
	if err != nil {
		t.Fatal(err)
	}
	return func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		return core.SolveContext(ctx, qep.NewBackend(op, e), opts)
	}
}

func realOptions() core.Options {
	o := core.DefaultOptions()
	o.Nint = 8
	o.Nmm = 4
	o.Nrh = 6
	o.Seed = 7
	return o
}

// sortedLambdas returns a result's eigenvalues ordered for comparison.
func sortedLambdas(res *core.Result) []complex128 {
	out := make([]complex128, len(res.Pairs))
	for i, p := range res.Pairs {
		out[i] = p.Lambda
	}
	sort.Slice(out, func(i, j int) bool {
		if real(out[i]) != real(out[j]) {
			return real(out[i]) < real(out[j])
		}
		return imag(out[i]) < imag(out[j])
	})
	return out
}

// TestSweepKillAndResumeGolden is the acceptance property of the durable
// sweep: a sweep killed mid-run by an injected torn checkpoint write,
// resumed from its journal, produces per-energy results matching an
// uninterrupted sweep within ResidualTol — with no re-solve of any energy
// that had a valid journal record, and the torn record itself detected,
// dropped, and re-solved rather than loaded.
func TestSweepKillAndResumeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("real-solver sweep in -short mode")
	}
	solve := realSolve(t)
	opts := realOptions()
	es := []float64{0.05, 0.06, 0.07}

	// Golden: the uninterrupted sweep.
	clean, err := Run(context.Background(), solve, es, opts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.OK+clean.Degraded != len(es) {
		t.Fatalf("clean sweep did not complete: %+v", clean)
	}

	// The "kill": energy 1's checkpoint write tears mid-frame. The append
	// fails, the sweep stops with ErrCheckpoint, and the on-disk journal
	// ends in a half-written record — exactly the image of a crash between
	// write and fsync.
	path := filepath.Join(t.TempDir(), "sweep.journal")
	cfg := Config{
		Workers:        1,
		CheckpointPath: path,
		OperatorDesc:   "al100-test",
		Chaos:          chaos.New(3, chaos.Config{TornRecord: 1, Energies: []int{1}}),
	}
	_, err = Run(context.Background(), solve, es, opts, cfg)
	if !errors.Is(err, ErrCheckpoint) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("killed sweep err = %v, want ErrCheckpoint wrapping the injected tear", err)
	}

	// Only energy 0 has a valid record; the torn record 1 must be invisible.
	fp := Fingerprint(cfg.OperatorDesc, es, opts)
	recs, err := Load(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Index != 0 {
		t.Fatalf("journal after kill holds %+v, want only the record for energy 0", recs)
	}

	// Resume without chaos: energy 0 restores, energies 1 and 2 re-solve.
	var calls atomic.Int64
	counting := func(ctx context.Context, e float64, o core.Options) (*core.Result, error) {
		calls.Add(1)
		return solve(ctx, e, o)
	}
	cfg.Chaos = nil
	cfg.Resume = true
	resumed, err := Run(context.Background(), counting, es, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("resume re-solved %d energies, want 2 (the journaled energy 0 must restore)", calls.Load())
	}
	if !resumed.Results[0].FromJournal || resumed.Results[1].FromJournal || resumed.Results[2].FromJournal {
		t.Errorf("restore flags wrong: %v %v %v, want only energy 0 from the journal",
			resumed.Results[0].FromJournal, resumed.Results[1].FromJournal, resumed.Results[2].FromJournal)
	}

	// Golden comparison: every energy's spectrum matches the uninterrupted
	// sweep within the residual tolerance.
	for i := range es {
		want := sortedLambdas(clean.Results[i].Result)
		got := sortedLambdas(resumed.Results[i].Result)
		if len(got) != len(want) {
			t.Fatalf("energy %d: %d eigenpairs after resume, clean run found %d", i, len(got), len(want))
		}
		for k := range want {
			if d := cmplx.Abs(got[k] - want[k]); d > opts.ResidualTol {
				t.Errorf("energy %d pair %d: lambda drifted by %g (> ResidualTol %g): %v vs %v",
					i, k, d, opts.ResidualTol, got[k], want[k])
			}
		}
	}

	// The restored record must carry usable physics, not just metadata.
	r0 := resumed.Results[0].Result
	if r0 == nil || len(r0.Pairs) == 0 || r0.Rank == 0 {
		t.Fatalf("restored result is hollow: %+v", r0)
	}
	for _, p := range r0.Pairs {
		if len(p.Psi) == 0 || math.IsNaN(p.Residual) {
			t.Error("restored eigenpair lost its vector or residual")
		}
	}
}

// TestSweepChaosMatrix is the seed-matrix invariant test behind the
// sweep-chaos CI job: whatever faults a seed draws (per-energy hard faults,
// checkpoint write faults, torn records), one journaled sweep plus at most
// one clean resume always converges to a full report — every energy ends in
// a terminal status, failures happen only where a fault was injected, and
// restored energies are never re-solved.
func TestSweepChaosMatrix(t *testing.T) {
	in := chaos.New(chaosSeed(), chaos.Config{EnergyFault: 0.2, CheckpointFault: 0.1, TornRecord: 0.1})
	es := testEnergies(16)
	opts := testOptions()
	path := filepath.Join(t.TempDir(), "sweep.journal")
	solve := func(ctx context.Context, e float64, o core.Options) (*core.Result, error) {
		return okResult(e, o), nil
	}
	cfg := Config{
		Workers:        2,
		MaxAttempts:    2,
		CheckpointPath: path,
		OperatorDesc:   "seed-matrix",
		Chaos:          in,
	}
	report, err := Run(context.Background(), solve, es, opts, cfg)
	if err != nil {
		// The only sweep-fatal fault in this matrix is a checkpoint write
		// failure; after the "disk is repaired" (chaos disarmed) a single
		// resume must finish the job from the journal.
		if !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("sweep stopped with %v, want an ErrCheckpoint fault", err)
		}
		var calls atomic.Int64
		counting := func(ctx context.Context, e float64, o core.Options) (*core.Result, error) {
			calls.Add(1)
			return okResult(e, o), nil
		}
		cfg.Chaos = nil
		cfg.Resume = true
		report, err = Run(context.Background(), counting, es, opts, cfg)
		if err != nil {
			t.Fatalf("clean resume failed: %v", err)
		}
		restored := 0
		for _, er := range report.Results {
			if er.FromJournal {
				restored++
			}
		}
		if int(calls.Load()) != len(es)-restored {
			t.Errorf("resume made %d solves for %d unrestored energies", calls.Load(), len(es)-restored)
		}
	}
	if report.Skipped != 0 {
		t.Errorf("final report leaves %d energies skipped", report.Skipped)
	}
	for i, er := range report.Results {
		switch er.Status {
		case StatusOK, StatusDegraded:
		case StatusFailed:
			// A failure must trace back to an injected energy fault; the
			// fake solver itself never fails.
			if in.EnergyFault(i) == nil {
				t.Errorf("energy %d failed without an injected fault: %v", i, er.Err)
			} else if !er.FromJournal && !errors.Is(er.Err, chaos.ErrInjected) {
				t.Errorf("energy %d failure lost its injected cause: %v", i, er.Err)
			}
		default:
			t.Errorf("energy %d ended %s, want a terminal status", i, er.Status)
		}
	}
}

// TestSweepRealSolverPartialSemantics: with a hard injected fault on one
// energy, the real-solver sweep still returns every other energy solved —
// the "never an empty result set" half of the acceptance criteria.
func TestSweepRealSolverPartialSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("real-solver sweep in -short mode")
	}
	solve := realSolve(t)
	opts := realOptions()
	es := []float64{0.05, 0.06, 0.07}
	cfg := Config{
		MaxAttempts: 2,
		Chaos:       chaos.New(11, chaos.Config{EnergyFault: 1, Energies: []int{1}}),
	}
	report, err := Run(context.Background(), solve, es, opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 1 || report.OK+report.Degraded != 2 {
		t.Fatalf("report = %+v, want 1 failed / 2 completed", report)
	}
	if er := report.Results[1]; er.Status != StatusFailed || !errors.Is(er.Err, chaos.ErrInjected) {
		t.Errorf("faulted energy: %+v", er)
	}
	if got := len(report.Completed()); got != 2 {
		t.Errorf("Completed() = %d results, want 2", got)
	}
}

// TestChaosDropLayoutIndependent: with the recovery ladder sabotaged in
// both top blocks, the {Top: 2, Mid: 2} layout drops the same
// (point, column) pairs as the serial one and reports them in (point,
// column) order, so the Diagnostics and the journal record are the serial
// ones byte for byte, whichever top block finishes first.
func TestChaosDropLayoutIndependent(t *testing.T) {
	solve := realSolve(t)
	cfg := Config{Chaos: chaos.New(chaosSeed(), chaos.Config{
		Breakdown:        0.2,
		RestartBreakdown: 1,
		FallbackFail:     1,
	})}
	var want EnergyResult
	var wantRec []byte
	for i, par := range []core.Parallel{{Top: 1, Mid: 1, Ndm: 1}, {Top: 2, Mid: 2, Ndm: 1}} {
		opts := realOptions()
		opts.Parallel = par
		er := SolveOne(context.Background(), solve, 0, 0.05, opts, cfg)
		if er.Result == nil {
			t.Fatalf("%+v: %s: %v", par, er.Status, er.Err)
		}
		rec, err := json.Marshal(RecordOf(er))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want, wantRec = er, rec
			var blocks [2]bool // drops in each half of the probe columns
			for _, dp := range er.Result.Diagnostics.DroppedPairs {
				blocks[2*dp.Col/er.Result.Expanded] = true
			}
			if !blocks[0] || !blocks[1] {
				t.Fatalf("seed %d drops %+v: not in both top blocks", chaosSeed(), er.Result.Diagnostics.DroppedPairs)
			}
			continue
		}
		if !reflect.DeepEqual(er.Result.Diagnostics, want.Result.Diagnostics) {
			t.Errorf("%+v: Diagnostics %+v, serial %+v", par, er.Result.Diagnostics, want.Result.Diagnostics)
		}
		if !bytes.Equal(rec, wantRec) {
			t.Errorf("%+v: journal record differs from the serial one", par)
		}
	}
}
