// cbsd is the CBS job server: the paper's workload — independent solves
// over (operator, energy) — as a request/response service. One model
// (structure + grid) is discretized at startup; clients submit
// single-energy solves and energy sweeps over HTTP, poll per-job status
// with per-energy progress, and share a fingerprint-keyed result cache
// with singleflight deduplication, so N identical concurrent requests
// cost one solve and repeat traffic costs none.
//
// API (JSON):
//
//	POST   /v1/solve           {"energy_ev": 0.25, "options": {"nint": 8}}   -> 202 {id, status_url, fingerprint}
//	POST   /v1/sweep           {"emin_ev": -1, "emax_ev": 1, "ne": 21}       -> 202 {id, status_url, fingerprint}
//	POST   /v1/bands           {"emin_ev": -1, "emax_ev": 1, "ne": 21, "kmax_im": 0.5} -> 202 (batch band structure)
//	POST   /v1/transport       {"emin_ev": -1, "emax_ev": 1, "ne": 21, "cells": 3}     -> 202 (NEGF transmission T(E))
//	GET    /v1/jobs/{id}       (?vectors=1 to include eigenvectors)          -> job state, progress, results
//	GET    /v1/jobs/{id}/events  SSE stream: state transitions + per-energy progress, Last-Event-ID replay
//	DELETE /v1/jobs/{id}       cancel; idempotent on finished jobs (200 + terminal state)
//	GET    /healthz            200 serving | 503 draining
//	GET    /metrics            expvar: cache hits/misses, queue depth, in-flight, solve latency
//
// Backpressure: a bounded worker pool behind fixed-depth per-client
// queues (weighted round-robin across X-CBS-Client identities); a full
// queue rejects with 429 + jittered Retry-After instead of queueing
// unboundedly. Durability: with -checkpoint-dir set, sweeps journal per
// energy under <dir>/<fingerprint>.journal and every job transition
// journals to <dir>/jobs.log; SIGTERM drains in-flight work (grace
// period, then context cancellation — the journal already holds every
// completed energy); a killed server replays the job log on restart and
// re-adopts every unfinished job, resuming sweeps from their journals or
// failing them with a typed "lost to restart" error. Cores: the -workers
// pool splits the host's cores among its jobs (core.Parallel.Split), each
// solve runs at Top 1, Ndm 1 and a Mid derived from its job's share, and a
// sweep job splits that share again over its -sweep-workers energies.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cbs"
	"cbs/internal/chaos"
	"cbs/internal/core"
	"cbs/internal/modelflags"
	"cbs/internal/negf"
	"cbs/internal/sweep"
	"cbs/internal/units"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	buildModel := modelflags.Register(flag.CommandLine, "dope-seed")

	workers := flag.Int("workers", 2, "concurrent jobs (worker pool size; the jobs split the host's cores)")
	queueDepth := flag.Int("queue-depth", 16, "accepted-but-unstarted job bound (overflow returns 429)")
	cacheEntries := flag.Int("cache-entries", 256, "result cache capacity (LRU entries)")
	sweepWorkers := flag.Int("sweep-workers", 1, "concurrent energies within one sweep job")
	checkpointDir := flag.String("checkpoint-dir", "", "journal sweeps under <dir>/<fingerprint>.journal (resumable)")
	drainGrace := flag.Duration("drain-grace", 10*time.Second, "how long SIGTERM lets in-flight jobs finish before canceling them")
	flag.Parse()

	model, err := buildModel()
	if err != nil {
		log.Fatal(err)
	}
	ef, err := model.FermiLevel(4)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s: N = %d, EF = %.4f hartree (%.3f eV)",
		model.OperatorDesc(), model.N(), ef, units.HartreeToEV(ef))

	if *checkpointDir != "" {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	defaults := cbs.DefaultOptions()
	// Fault injection is env-gated (CBS_CHAOS, CBS_CHAOS_JOB,
	// CBS_CHAOS_CACHE, ...): nil in normal operation.
	inj := chaos.FromEnv()
	defaults.Chaos = inj

	srv, err := newServer(serverConfig{
		backend:       modelBackend(model, ef),
		workers:       *workers,
		queueDepth:    *queueDepth,
		cacheEntries:  *cacheEntries,
		sweepWorkers:  *sweepWorkers,
		checkpointDir: *checkpointDir,
		drainGrace:    *drainGrace,
		defaults:      defaults,
		chaos:         inj,
	})
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Stop accepting connections first, then drain the pool: give
		// in-flight jobs the grace period, then cancel them — canceled
		// sweeps have already journaled every completed energy.
		log.Printf("signal: draining (grace %s)", *drainGrace)
		shCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		defer cancel()
		httpSrv.Shutdown(shCtx) //nolint:errcheck // drain decides the exit
		if err := srv.Drain(shCtx); err != nil {
			log.Printf("drain: in-flight jobs canceled after grace: %v", err)
		} else {
			log.Printf("drain: all jobs finished")
		}
	}()

	log.Printf("cbsd listening on %s (workers=%d queue=%d cache=%d)", *addr, *workers, *queueDepth, *cacheEntries)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained // the journal flushes before the process exits
}

// modelBackend adapts the public cbs.Model API to the server's backend.
// Transport composes the low-level NEGF sweep around the model's backend
// so the server can thread its cache-wrapped solve through it.
func modelBackend(model *cbs.Model, ef float64) backend {
	return backend{
		desc:  model.OperatorDesc(),
		ef:    ef,
		a:     model.CellLength(),
		solve: model.SolveCBSContext,
		transport: func(ctx context.Context, solve sweep.SolveFunc, spec negf.Spec, opts core.Options, cfg sweep.Config) (*negf.Curve, error) {
			return negf.TransmissionSweep(ctx, model.Backend(), solve, spec, opts, cfg)
		},
	}
}
