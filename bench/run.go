package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	seed    int64
	seconds float64 // how long the timed part runs
	traced  bool
	smoke   bool   // tiny problem sizes: exercises every code path in about a second
	workdir string // this run's journals and checkpoints live here
	cbsd    string // where serve_tb builds cbs/cmd/cbsd, and what it starts
}

// reps is how often a measurement is repeated: n at full size, at most two
// in a smoke run, which checks code paths and not performance.
func (c runConfig) reps(n int) int {
	if c.smoke {
		return min(n, 2)
	}
	return n
}

// loop returns the time budget and the minimum repetitions of a workload's
// timed loop. The traced run spends half the budget on the workload (one
// repetition is enough for spans and counts) and the rest on micro-calls.
func (c runConfig) loop(minReps int) (budget float64, reps int) {
	if c.traced {
		return c.seconds / 2, 1
	}
	return c.seconds, c.reps(minReps)
}

// scratch returns a path under this run's work directory.
func (c runConfig) scratch(name string) string { return filepath.Join(c.workdir, name) }

// workload is one entry of BENCHMARK.json's workloads list.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, cfg runConfig, o *outcome) error
}

var workloads = []workload{
	{"solve_al", "one FD Al(100) contour solve at paper options: linsolve/qep/hamiltonian do 96 % of the work, serving and sweep layers none (Fig. 4a / Table 1 baseline)", runSolveAl},
	{"sweep_al", "16-energy journaled FD sweep: still solver-bound, neighbouring energies share work, so cross-energy recycling shows here and solve_al predicts no change", runSweepAl},
	{"transport_tb", "64-energy tight-binding CBS-to-NEGF sweep on the portable backend path: 45 ms per energy, so ssm/zlinalg extraction, negf algebra and sweep/journal overhead carry over half of the time", runTransportTB},
	{"serve_tb", "real cbsd over loopback HTTP, 2 closed-loop clients, 40 % repeated solves: jobs, rescache, jobs.log, fingerprint, HTTP/JSON and SSE do most of the work, the solver little", runServeTB},
	{"fleet_al", "the sweep_al grid dispatched through fleet/comm/wire to two in-process TCP workers: separates dispatch and ship time from solving", runFleetAl},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// outcome collects what a workload measured. attempt/fail implement the
// issue's failed_frac: every operation is attempted once and fails at most
// once, whether it errored, was refused, ended Failed or Degraded, or failed
// its correctness check.
type outcome struct {
	rec  *recorder // nil in the untraced run
	root int       // the run's root span
	// microBudget bounds each repeated micro-call of the traced run.
	microBudget time.Duration

	values    map[string]value
	attempted int
	failed    int
	failures  []string
	clients   int
	workers   int
}

func newOutcome(rec *recorder) *outcome {
	return &outcome{rec: rec, values: map[string]value{}}
}

func (o *outcome) attempt(n int) { o.attempted += n }

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check fails one operation unless err is nil.
func (o *outcome) check(what string, err error) bool {
	if err != nil {
		o.fail("%s: %v", what, err)
	}
	return err == nil
}

func (o *outcome) set(name string, v float64) { o.values[name] = value{Name: name, Value: v} }

func (o *outcome) note(name, note string) {
	v := o.values[name]
	v.Name, v.Note = name, note
	o.values[name] = v
}

// setTiming records the median of a timing sample (already in the metric's
// unit) with its count and range.
func (o *outcome) setTiming(name string, s sample) {
	if len(s) == 0 {
		o.set(name, 0)
		return
	}
	o.values[name] = value{Name: name, Value: s.median(), N: len(s), Min: s.min(), Max: s.max()}
}

// setTail records the highest percentile the sample supports up to cap.
func (o *outcome) setTail(name string, s sample, cap float64) {
	if len(s) == 0 {
		o.set(name, 0)
		return
	}
	lvl := tailLevel(len(s), cap)
	v := value{Name: name, Value: s.tail(cap), N: len(s), Min: s.min(), Max: s.max()}
	if lvl < cap {
		v.Note = fmt.Sprintf("p%.0f: %d samples support no higher percentile", lvl*100, len(s))
	}
	o.values[name] = v
}

// row assembles the result row: every end-to-end metric for an untraced
// run, every per-layer metric (0 where the workload does not exercise the
// layer) for a traced one. A missing or non-finite end-to-end value is a
// benchmark bug and fails the run.
func (o *outcome) row(w *workload, cfg runConfig) row {
	r := row{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced, Smoke: cfg.smoke,
		Clients: o.clients, Workers: o.workers,
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok && !cfg.traced {
			o.fail("benchmark bug: %s did not report %s", w.name, d.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!cfg.traced && v.Value <= 0) {
			o.fail("%s = %v is not a usable measurement", d.Name, v.Value)
			v.Value = 0
		}
		v.Name, v.Unit = d.Name, d.Unit
		r.Metrics = append(r.Metrics, v)
	}
	r.Attempted, r.Failed, r.Failures = o.attempted, o.failed, o.failures
	return r
}

// runWorkload runs one workload once and returns its row.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (row, []span, error) {
	var rec *recorder
	if cfg.traced {
		rec = newRecorder(fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
	}
	o := newOutcome(rec)
	o.microBudget = 300 * time.Millisecond
	if cfg.smoke {
		o.microBudget = 20 * time.Millisecond
	}
	o.root = rec.begin("bench."+w.name, -1)
	t0 := time.Now()
	err := w.run(ctx, cfg, o)
	rec.end(o.root)
	if err != nil {
		return row{}, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if cfg.traced {
		// Computed, not differenced: the traced and untraced runs are
		// separate processes whose wall times differ by more noise than the
		// recorder costs.
		o.set("trace.overhead_frac", float64(rec.count())*spanCost().Seconds()/time.Since(t0).Seconds())
		o.note("trace.overhead_frac", "computed")
	}
	return o.row(w, cfg), rec.spans(), nil
}

// loadThreads is the number of busy load-generating threads the issue
// allows: min(2, nproc).
func loadThreads() int { return min(2, runtime.NumCPU()) }

// timedLoop calls op until the time budget is spent, rounding to the nearest
// whole repetition (it stops when the next one would overshoot by more than
// half its expected length) and running at least minReps. It returns each
// repetition's wall time in seconds.
func timedLoop(ctx context.Context, budget float64, minReps int, op func(rep int) error) (sample, error) {
	var walls sample
	for rep := 0; ; rep++ {
		if err := ctx.Err(); err != nil {
			return walls, err
		}
		t0 := time.Now()
		if err := op(rep); err != nil {
			return walls, err
		}
		walls.add(time.Since(t0).Seconds())
		if len(walls) >= minReps && walls.sum()+walls.median()/2 > budget {
			return walls, nil
		}
	}
}
