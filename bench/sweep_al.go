package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"cbs"
	"cbs/internal/sweep"
)

// completions collects OnEnergy callbacks: when each energy of a sweep
// reached its terminal state, relative to the start of the call.
type completions struct {
	mu    sync.Mutex
	start time.Time
	at    []time.Duration
}

func (c *completions) begin() {
	c.mu.Lock()
	c.start, c.at = time.Now(), c.at[:0]
	c.mu.Unlock()
}

func (c *completions) onEnergy(sweep.EnergyResult) {
	c.mu.Lock()
	c.at = append(c.at, time.Since(c.start))
	c.mu.Unlock()
}

// last is the time of the latest completion.
func (c *completions) last() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at[len(c.at)-1]
}

// intervals are the times between consecutive completions (the first from
// the start of the call), in milliseconds: with one sweep worker, the latency
// the caller sees for each energy.
func (c *completions) intervals() sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s sample
	prev := time.Duration(0)
	for _, t := range c.at {
		s.add(millis(t - prev))
		prev = t
	}
	return s
}

// sweepRep is what one repetition of a sweep-shaped workload produced.
type sweepRep struct {
	report *cbs.SweepReport
	wall   float64
	span   int
}

// checkSweepAl gates one Al sweep report: every energy OK and, per energy,
// the solve invariants and (seed 1) the committed lambda set.
func checkSweepAl(o *outcome, cfg runConfig, rep *cbs.SweepReport, opts cbs.Options, what string) solveChecks {
	var checks solveChecks
	for i, er := range rep.Results {
		o.attempt(1)
		if er.Status != cbs.SweepOK {
			o.fail("%s energy %d ended %s: %v", what, i, er.Status, er.Err)
			continue
		}
		c, err := checkSolve(er.Result, opts, sweepRef(cfg, i))
		checks.merge(c)
		o.check(fmt.Sprintf("%s energy %d", what, i), err)
	}
	return checks
}

// solverSeconds are the per-energy times the solver itself reports.
func solverSeconds(rep *cbs.SweepReport) sample {
	var s sample
	for _, er := range rep.Results {
		if er.Result != nil {
			t := er.Result.Timings
			s.add((t.Setup + t.SolveLinear + t.Extract).Seconds())
		}
	}
	return s
}

// runSweepAl is the sweep_al workload: Model.SweepCBS over 16 energies with
// one worker and a fresh checkpoint journal per repetition.
func runSweepAl(ctx context.Context, cfg runConfig, o *outcome) error {
	o.clients, o.workers = 1, 1
	al, setup, err := setupAl(ctx, cfg, o)
	if err != nil {
		return err
	}
	es, opts := sweepEnergiesAl(cfg), sweepOptsAl()

	budget, minReps := cfg.loop(2)
	var (
		done    completions
		reps    []sweepRep
		lat     sample
		solver  sample
		sweepSp = -1
	)
	traced := solveFunc(al, o.rec, &sweepSp)
	walls, err := timedLoop(ctx, budget, minReps, func(rep int) error {
		path := cfg.scratch(fmt.Sprintf("sweep-%d.journal", rep))
		defer os.Remove(path)
		scfg := cbs.SweepConfig{Workers: 1, CheckpointPath: path, OnEnergy: done.onEnergy}
		done.begin()
		t0 := time.Now()
		var report *cbs.SweepReport
		var err error
		if cfg.traced {
			// The same call Model.SweepCBS makes, with a span around the
			// sweep and around each solve.
			scfg.OperatorDesc = al.OperatorDesc()
			sweepSp = o.rec.begin("sweep.Run", o.root)
			report, err = sweep.Run(ctx, traced, es, opts, scfg)
			o.rec.end(sweepSp)
		} else {
			report, err = al.SweepCBS(ctx, es, opts, scfg)
		}
		if err != nil {
			return err
		}
		reps = append(reps, sweepRep{report: report, wall: time.Since(t0).Seconds(), span: sweepSp})
		lat = append(lat, done.intervals()...)
		solver = append(solver, solverSeconds(report)...)
		return nil
	})
	if err != nil {
		return err
	}

	var checks solveChecks
	var rate sample
	for i, r := range reps {
		checks.merge(checkSweepAl(o, cfg, r.report, opts, fmt.Sprintf("rep %d", i)))
		rate.add(float64(r.report.OK) / r.wall)
	}
	hit, err := restoreLatency(ctx, cfg, al, reps[0].report.Completed(), opts)
	if err != nil {
		return err
	}

	o.set("setup_s", setup)
	o.setTiming("solve_s", solver)
	o.setTiming("energies_per_s", rate)
	o.set("jobs_per_s", 1/walls.median())
	o.setTiming("solve_miss_p50_ms", lat)
	o.setTail("solve_miss_p90_ms", lat, 0.90)
	o.setTiming("solve_hit_p50_ms", hit)

	if !cfg.traced {
		return nil
	}
	first := reps[0]
	var stats layerStats
	for _, res := range first.report.Completed() {
		stats.add(res)
	}
	stats.report(o, checks)
	reportSweepLayer(o, first, len(es))
	if err := microJournal(o, cfg.scratch("micro.journal"), first.report.Completed()); err != nil {
		return err
	}

	// Off every workload's blocking path: what cmd/cbs and cbsd pay (four
	// times over, at nk=4) before their first solve.
	sp := o.rec.begin("bandstructure.FermiLevel", o.root)
	t0 := time.Now()
	_, err = al.FermiLevel(1)
	o.rec.end(sp)
	o.set("bandstructure.fermi_nk1_s", time.Since(t0).Seconds())
	return err
}

// reportSweepLayer writes the sweep-layer metrics of one traced repetition:
// the sweep span's self time is what sweep.Run spent outside the solves
// (journal appends with their fsync, the retry ladder, bookkeeping).
func reportSweepLayer(o *outcome, r sweepRep, ne int) {
	spans := o.rec.spans()
	if r.span >= 0 {
		o.set("sweep.overhead_ms_per_energy", millis(selfTime(spans, r.span))/float64(ne))
	}
	o.set("sweep.attempts_per_energy", float64(r.report.Attempts)/float64(ne))
	o.set("sweep.degraded", float64(r.report.Degraded))
}
