package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"cbs"
	"cbs/internal/core"
	"cbs/internal/sweep"
)

// runSolveAl is the solve_al workload: repeated Model.SolveCBS at one
// pinned energy with the paper's options, single-threaded.
func runSolveAl(ctx context.Context, cfg runConfig, o *outcome) error {
	o.clients, o.workers = 1, 1
	al, setup, err := setupAl(ctx, cfg, o)
	if err != nil {
		return err
	}
	e, opts := solveEnergyAl(cfg), solveOptsAl(cfg)

	budget, minReps := cfg.loop(3)
	var results []*core.Result
	walls, err := timedLoop(ctx, budget, minReps, func(rep int) error {
		sp := o.rec.begin("core.SolveContext", o.root)
		defer o.rec.end(sp)
		solve := func() error {
			res, err := al.SolveCBSContext(ctx, e, opts)
			if err == nil {
				results = append(results, res)
			}
			return err
		}
		if cfg.traced && rep == 0 {
			return measureAllocs(o, solve)
		}
		return solve()
	})
	if err != nil {
		return err
	}

	var checks solveChecks
	var stats layerStats
	stats.add(results[0])
	for i, res := range results {
		o.attempt(1)
		c, err := checkSolve(res, opts, solveRef(cfg))
		checks.merge(c)
		o.check(fmt.Sprintf("solve %d", i), err)
	}

	hit, err := restoreLatency(ctx, cfg, al, results[:1], opts)
	if err != nil {
		return err
	}

	ms := walls.scaledBy(1e3)
	o.set("setup_s", setup)
	o.setTiming("solve_s", walls)
	o.set("energies_per_s", float64(len(walls))/walls.sum())
	o.set("jobs_per_s", 1/walls.median())
	o.setTiming("solve_miss_p50_ms", ms)
	o.setTail("solve_miss_p90_ms", ms, 0.90)
	o.setTiming("solve_hit_p50_ms", hit)

	if !cfg.traced {
		return nil
	}
	stats.report(o, checks)
	if err := microKernels(o, al, e, opts, walls.median(), results[0].MatVecs); err != nil {
		return err
	}
	if err := microExtract(o, results[0], opts); err != nil {
		return err
	}
	if err := microJournal(o, cfg.scratch("micro.journal"), results[:1]); err != nil {
		return err
	}
	return microNdm2(ctx, cfg, o, al, e)
}

// hitReps is how often a restore is repeated for solve_hit_p50_ms. A restore
// takes milliseconds and mostly allocates, so each repetition starts from a
// collected heap: otherwise whether a GC cycle lands inside it depends on how
// much the solves before it happened to allocate.
const hitReps = 25

// restoreLatency measures the in-process reading of solve_hit_p50_ms: the
// per-energy time of Model.SweepCBS resuming a checkpoint journal that
// already holds every result, so nothing is solved. It writes the journal
// itself from the given results (energy order), then resumes it several
// times. The returned sample is in milliseconds per energy.
func restoreLatency(ctx context.Context, cfg runConfig, m *cbs.Model, results []*core.Result, opts cbs.Options) (sample, error) {
	es := make([]float64, len(results))
	for i, res := range results {
		es[i] = res.Energy
	}
	path := cfg.scratch("restore.journal")
	defer os.Remove(path)
	j, err := sweep.Create(path, m.SweepFingerprint(es, opts))
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		er := sweep.EnergyResult{Index: i, Energy: es[i], Status: sweep.StatusOK, Attempts: 1, Result: res}
		if err := j.Append(sweep.RecordOf(er)); err != nil {
			j.Close()
			return nil, err
		}
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	var ms sample
	for i := 0; i < cfg.reps(hitReps); i++ {
		runtime.GC()
		t0 := time.Now()
		rep, err := m.SweepCBS(ctx, es, opts, cbs.SweepConfig{CheckpointPath: path, Resume: true})
		if err != nil {
			return nil, err
		}
		if rep.Restored != len(es) {
			return nil, fmt.Errorf("resume restored %d of %d energies", rep.Restored, len(es))
		}
		ms.add(millis(time.Since(t0)) / float64(len(es)))
	}
	return ms, nil
}

// microNdm2 reports the off-path distributed bottom layer: one Ndm:2 solve
// at Nint 8. With fewer than four cores the two domains and their fabric
// share cores with each other, so the wall time is labelled unresolved and
// never turned into a scaling ratio; the byte count is exact.
func microNdm2(ctx context.Context, cfg runConfig, o *outcome, m *cbs.Model, e float64) error {
	opts := solveOptsAl(cfg)
	opts.Nint = min(opts.Nint, 8)
	opts.Parallel = cbs.Parallel{Top: 1, Mid: 1, Ndm: 2}
	sp := o.rec.begin("core.SolveContext[ndm=2]", o.root)
	t0 := time.Now()
	res, err := m.SolveCBSContext(ctx, e, opts)
	o.rec.end(sp)
	if err != nil {
		return fmt.Errorf("Ndm:2 solve: %w", err)
	}
	o.set("dist.ndm2_solve_s", time.Since(t0).Seconds())
	if runtime.NumCPU() < 4 {
		o.note("dist.ndm2_solve_s", "unresolved: nproc < 4")
	}
	o.set("dist.ndm2_comm_bytes", float64(res.CommBytes))
	return nil
}
