// cbsw is the fleet worker: it builds the same model as a coordinating
// cbs process (same -system and grid flags), dials the coordinator, and
// solves the energies the rendezvous hash assigns it until the sweep
// finishes. Every assignment is verified against the coordinator's solve
// fingerprint before any arithmetic runs, so a worker built with the
// wrong flags refuses work instead of contributing wrong physics.
//
// A worker that loses its link to the coordinator redials and registers
// again under the same -name, winning back its rendezvous share; it exits
// with an error wrapping fleet.ErrLinkLost when its first registration is
// refused or the coordinator stays unreachable. Killing a worker mid-solve
// is safe: the coordinator re-dispatches its outstanding energies to the
// survivors.
//
// Example (against `cbs -scan -fleet-listen :9740`):
//
//	cbsw -coordinator host:9740 -name w1 -system al
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"cbs"
	"cbs/internal/chaos"
	"cbs/internal/modelflags"
)

func main() {
	coordinator := flag.String("coordinator", "", "coordinator address (host:port) — required")
	name := flag.String("name", "", "stable worker name for the rendezvous hash (default: hostname-pid)")

	buildModel := modelflags.Register(flag.CommandLine, "seed") // must match the coordinator's

	retries := flag.Int("retries", 3, "failed solve attempts per assigned energy")
	top := flag.Int("top", 1, "top-layer workers (right-hand sides)")
	mid := flag.Int("mid", 1, "middle-layer workers (quadrature points)")
	ndm := flag.Int("ndm", 1, "bottom-layer domains")
	flag.Parse()

	if *coordinator == "" {
		log.Fatal("cbsw: -coordinator is required")
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The model must be bit-identical to the coordinator's: the operator
	// digest is checked at registration, and each assignment's solve
	// fingerprint (operator + energy + options) is re-derived here before
	// the solve runs.
	model, err := buildModel()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: %s, N = %d\n", *name, model.OperatorDesc(), model.N())

	cfg := cbs.FleetWorkerConfig{
		Addr:  *coordinator,
		Name:  *name,
		Sweep: cbs.SweepConfig{MaxAttempts: *retries},
		// The coordinator ships the physics options; the parallel layout
		// is this worker's own (it is scheduling, not identity, so the
		// per-assignment fingerprint check is unaffected).
		Parallel: cbs.Parallel{Top: *top, Mid: *mid, Ndm: *ndm},
		Chaos:    chaos.FromEnv(),
	}

	start := time.Now()
	err = model.ServeFleet(ctx, cfg)
	switch {
	case err == nil:
		fmt.Fprintf(os.Stderr, "%s: sweep complete after %s\n", *name, time.Since(start).Round(time.Millisecond))
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "%s: interrupted\n", *name)
	default:
		log.Fatalf("%s: %v", *name, err)
	}
}
