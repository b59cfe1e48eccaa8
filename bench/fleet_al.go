package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"cbs"
	"cbs/internal/core"
	"cbs/internal/fleet"
	"cbs/internal/qep"
	"cbs/internal/sweep"
)

// fleetEnergies is sweep_al's seed-1 grid in a seed-chosen dispatch order.
// The grid itself is not jittered: the fleet shards by rendezvous hash of
// each energy's fingerprint, so changing an energy's bits changes the
// two-worker split (8/8 ... 11/5) and with it the wall time by more than any
// dispatch change could. A permutation keeps the split, and so the work,
// the same for every seed.
func fleetEnergies(cfg runConfig) ([]float64, cbs.Options) {
	base := cfg
	base.seed = 1
	es, opts := sweepEnergiesAl(base), sweepOptsAl()
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es, opts
}

// workerSolve is one solve a fleet worker ran, timed around the call.
type workerSolve struct {
	worker     int
	energy     float64
	start, end time.Duration // since the Coordinate call
}

// fleetRep is one CoordinateFleet call with its in-process workers.
type fleetRep struct {
	report   *cbs.SweepReport
	wall     time.Duration
	listen   time.Duration   // Coordinate call to OnListen
	arrivals []time.Duration // OnEnergy times by energy index
	solves   []workerSolve
}

// runFleetRep coordinates one sweep on 127.0.0.1:0 with in-process fleet
// workers over loopback TCP. The workers run fleet.Work with the solve
// closure Model.ServeFleet builds, timed around each call: nothing else
// tells the benchmark when a worker started or finished an energy, and that
// is what separates dispatch and shipping from solving. Tracing adds spans.
func runFleetRep(ctx context.Context, o *outcome, m *cbs.Model, es []float64, opts cbs.Options, workers int, journal string) (*fleetRep, error) {
	rep := &fleetRep{arrivals: make([]time.Duration, len(es))}
	var (
		mu      sync.Mutex // guards rep.arrivals and rep.solves
		wg      sync.WaitGroup
		workErr = make([]error, workers)
	)
	fleetSp := o.rec.begin("fleet.Coordinate", o.root)
	t0 := time.Now()
	worker := func(w int, addr string) {
		defer wg.Done()
		workSp := o.rec.begin("fleet.Work", fleetSp)
		defer o.rec.end(workSp)
		solve := func(ctx context.Context, e float64, so core.Options) (*core.Result, error) {
			sp := o.rec.begin("core.SolveContext", workSp)
			start := time.Since(t0)
			res, err := core.SolveContext(ctx, qep.NewBackend(m.B, e), so)
			end := time.Since(t0)
			o.rec.end(sp)
			mu.Lock()
			rep.solves = append(rep.solves, workerSolve{w, e, start, end})
			mu.Unlock()
			return res, err
		}
		workErr[w] = fleet.Work(ctx, solve, cbs.FleetWorkerConfig{
			Addr: addr, Name: fmt.Sprintf("w%d", w), OperatorDesc: m.OperatorDesc(),
			Parallel: cbs.Parallel{Top: 1, Mid: 1, Ndm: 1},
		})
	}
	report, err := m.CoordinateFleet(ctx, es, opts, cbs.FleetCoordinatorConfig{
		Addr:           "127.0.0.1:0",
		MinWorkers:     workers,
		CheckpointPath: journal,
		OnListen: func(addr string) {
			rep.listen = time.Since(t0)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go worker(w, addr)
			}
		},
		OnEnergy: func(er sweep.EnergyResult) {
			mu.Lock()
			rep.arrivals[er.Index] = time.Since(t0)
			mu.Unlock()
		},
	})
	rep.wall = time.Since(t0)
	o.rec.end(fleetSp)
	wg.Wait() // workers return once the coordinator reports the sweep done
	if err != nil {
		return nil, err
	}
	for w, werr := range workErr {
		if werr != nil {
			return nil, fmt.Errorf("worker w%d: %w", w, werr)
		}
	}
	rep.report = report
	return rep, nil
}

// firstSolve is when the first worker began solving: MinWorkers gates the
// first dispatch, so by then every worker has registered.
func (r *fleetRep) firstSolve() time.Duration {
	first := r.wall
	for _, s := range r.solves {
		first = min(first, s.start)
	}
	return first
}

// encodeReport is the byte-identity form of a sweep report: status and
// sweep.EncodeResult JSON per energy.
func encodeReport(rep *cbs.SweepReport) ([]string, error) {
	out := make([]string, len(rep.Results))
	for i, er := range rep.Results {
		data, err := json.Marshal(sweep.EncodeResult(er.Result))
		if err != nil {
			return nil, err
		}
		out[i] = string(er.Status) + " " + string(data)
	}
	return out, nil
}

// runFleetAl is the fleet_al workload: the sweep_al grid through
// CoordinateFleet and two in-process TCP workers, checked byte for byte
// against the in-process sweep of the same energies.
func runFleetAl(ctx context.Context, cfg runConfig, o *outcome) error {
	workers := loadThreads()
	o.clients, o.workers = workers, workers
	al, setup, err := setupAl(ctx, cfg, o)
	if err != nil {
		return err
	}
	es, opts := fleetEnergies(cfg)

	// The oracle, and the warm-up: the same energies through the in-process
	// sweep engine, as concurrent as the fleet will be.
	sp := o.rec.begin("sweep.Run[reference]", o.root)
	golden, err := al.SweepCBS(ctx, es, opts, cbs.SweepConfig{Workers: workers})
	o.rec.end(sp)
	if err != nil {
		return err
	}
	want, err := encodeReport(golden)
	if err != nil {
		return err
	}

	budget, minReps := cfg.loop(3)
	var reps []*fleetRep
	walls, err := timedLoop(ctx, budget, minReps, func(rep int) error {
		path := cfg.scratch(fmt.Sprintf("fleet-%d.journal", rep))
		if rep > 0 { // the first journal is resumed below
			defer os.Remove(path)
		}
		r, err := runFleetRep(ctx, o, al, es, opts, workers, path)
		if err == nil {
			reps = append(reps, r)
		}
		return err
	})
	if err != nil {
		return err
	}

	index := make(map[float64]int, len(es))
	for i, e := range es {
		index[e] = i
	}
	var rate, solver, turnaround, ship, register sample
	for i, r := range reps {
		got, err := encodeReport(r.report)
		if err != nil {
			return err
		}
		for k := range es {
			o.attempt(1)
			if got[k] != want[k] {
				o.fail("rep %d energy %d: fleet result differs from the in-process sweep", i, k)
			}
		}
		rate.add(float64(r.report.OK) / r.wall.Seconds())
		register.add(r.firstSolve().Seconds())
		for _, s := range r.solves {
			arrived := r.arrivals[index[s.energy]]
			solver.add((s.end - s.start).Seconds())
			turnaround.add(millis(arrived - s.start))
			ship.add(millis(arrived - s.end))
		}
	}
	hit, err := resumeFleet(ctx, cfg.scratch("fleet-0.journal"), cfg.reps(hitReps), al, es, opts)
	if err != nil {
		return err
	}

	o.set("setup_s", setup+register.median())
	o.setTiming("solve_s", solver)
	o.setTiming("energies_per_s", rate)
	o.set("jobs_per_s", 1/walls.median())
	o.setTiming("solve_miss_p50_ms", turnaround)
	o.setTail("solve_miss_p90_ms", turnaround, 0.90)
	o.setTiming("solve_hit_p50_ms", hit)

	if !cfg.traced {
		return nil
	}
	first := reps[0]
	var stats layerStats
	for _, res := range first.report.Completed() {
		stats.add(res) // decoded from the wire: counts survive, timings and points do not
	}
	o.set("linsolve.matvecs", float64(stats.matVecs))
	o.set("linsolve.ladder_events", float64(stats.ladder))
	o.set("core.pairs", float64(stats.pairs))
	o.set("sweep.attempts_per_energy", float64(first.report.Attempts)/float64(len(es)))
	o.set("sweep.degraded", float64(first.report.Degraded))

	busy := make([]time.Duration, workers)
	var total, worst time.Duration
	for _, s := range first.solves {
		busy[s.worker] += s.end - s.start
	}
	for _, b := range busy {
		total += b
		worst = max(worst, b)
	}
	o.set("fleet.first_assign_ms", millis(first.firstSolve()-first.listen))
	o.setTiming("fleet.result_ship_ms_p50", ship)
	o.set("fleet.worker_idle_frac", 1-total.Seconds()/(float64(workers)*first.wall.Seconds()))
	o.set("fleet.shard_imbalance", worst.Seconds()*float64(workers)/total.Seconds())
	o.set("fleet.duplicate_solves", float64(len(first.solves)-len(es)))
	if workers < 2 {
		o.note("fleet.shard_imbalance", "one worker: nproc < 2")
	}
	return nil
}

// resumeFleet measures solve_hit_p50_ms for fleet_al: CoordinateFleet
// resuming the complete journal at path restores every energy and needs no
// worker. Milliseconds per energy.
func resumeFleet(ctx context.Context, path string, reps int, m *cbs.Model, es []float64, opts cbs.Options) (sample, error) {
	defer os.Remove(path)
	var ms sample
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		rep, err := m.CoordinateFleet(ctx, es, opts, cbs.FleetCoordinatorConfig{Addr: "127.0.0.1:0", CheckpointPath: path, Resume: true})
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
