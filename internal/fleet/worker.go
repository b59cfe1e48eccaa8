package fleet

import (
	"context"
	"errors"
	"fmt"

	"cbs/internal/chaos"
	"cbs/internal/comm"
	"cbs/internal/core"
	"cbs/internal/fingerprint"
	"cbs/internal/sweep"
)

// WorkerConfig tunes one fleet worker.
type WorkerConfig struct {
	// Addr is the coordinator's address.
	Addr string
	// Name is the worker's identity in the rendezvous hash. It must be
	// stable across restarts of the same logical worker and unique within
	// the fleet, or energies shard unevenly.
	Name string
	// OperatorDesc must describe the same physics as the coordinator's;
	// registration and every assignment are verified against it.
	OperatorDesc string
	// TCP tunes the link to the coordinator. A solve may outlast
	// IOTimeout*RetryBudget by any factor: the link acks the coordinator's
	// Naks on its own while this worker computes.
	TCP comm.TCPOptions
	// Sweep supplies the escalation-ladder knobs (MaxAttempts, Backoff,
	// MaxNrhDoublings, Chaos for injected solve faults). Journal and
	// worker-pool fields are ignored: the coordinator owns those.
	Sweep sweep.Config
	// Parallel, when non-zero, overrides the parallel layout of the
	// shipped options for solves on this worker. The layout is
	// scheduling, not identity — fingerprint verification is unaffected —
	// so each worker sizes the three layers to its own cores.
	Parallel core.Parallel
	// Chaos, when non-nil, arms the worker side of the coordinator link
	// with injected network faults (testing only).
	Chaos *chaos.Injector
}

// Work dials the coordinator, registers, and solves assignments until the
// coordinator reports the sweep done (nil), the context dies (ctx.Err()),
// or the link fails typed — ErrPartition, ErrPeerLost, ErrFrameCorrupt
// wrapped in the returned error. A worker that returns with an error can
// be restarted; it rejoins as a fresh registration and wins back its
// rendezvous share.
func Work(ctx context.Context, solve sweep.SolveFunc, cfg WorkerConfig) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Name == "" {
		return errors.New("fleet: worker needs a name")
	}
	if solve == nil {
		return errors.New("fleet: worker needs a solve function")
	}

	rc := comm.DialLink(comm.WildcardID, 0, cfg.Addr, cfg.TCP)
	rc.SetChaos(cfg.Chaos)
	defer rc.Close()
	watcherStop := make(chan struct{})
	defer close(watcherStop)
	go func() {
		select {
		case <-ctx.Done():
			rc.Close() // unblocks any Recv with ErrClosed
		case <-watcherStop:
		}
	}()

	opDigest := fingerprint.Operator(cfg.OperatorDesc)
	if err := sendMsg(rc, msg{Type: msgRegister, Name: cfg.Name, Operator: opDigest}); err != nil {
		return fmt.Errorf("fleet: worker %q: register: %w", cfg.Name, err)
	}
	welcome, err := recvMsg(rc)
	if err != nil {
		return workerErr(ctx, cfg.Name, "welcome", err)
	}
	if welcome.Type != msgWelcome || welcome.Opts == nil {
		return fmt.Errorf("fleet: worker %q: expected welcome, got %q", cfg.Name, welcome.Type)
	}
	if welcome.Operator != opDigest {
		return fmt.Errorf("fleet: worker %q: coordinator solves a different operator (digest %s, ours %s)",
			cfg.Name, welcome.Operator, opDigest)
	}
	rc.SetLocalID(welcome.ID)
	opts := *welcome.Opts
	if (cfg.Parallel != core.Parallel{}) {
		opts.Parallel = cfg.Parallel
	}

	for {
		m, err := recvMsg(rc)
		if err != nil {
			return workerErr(ctx, cfg.Name, "assignment stream", err)
		}
		switch m.Type { // unknown types (an older peer's keepalives) are ignored
		case msgDone:
			return nil
		case msgAssign:
			var rec sweep.Record
			if want := fingerprint.Solve(cfg.OperatorDesc, m.Energy, opts); want != m.Key {
				// The coordinator and this worker disagree about the
				// physics of this assignment: refuse to compute rather
				// than return a wrong band structure.
				rec = sweep.Record{
					Index:  m.Index,
					Energy: m.Energy,
					Status: sweep.StatusFailed,
					Error:  fmt.Sprintf("fleet: fingerprint mismatch: assignment %s, worker computes %s", m.Key, want),
				}
			} else {
				er := sweep.SolveOne(ctx, solve, m.Index, m.Energy, opts, cfg.Sweep)
				if er.Status == sweep.StatusSkipped && ctx.Err() != nil {
					return ctx.Err()
				}
				rec = sweep.RecordOf(er)
			}
			if err := sendMsg(rc, msg{Type: msgResult, Index: m.Index, Record: &rec}); err != nil {
				return workerErr(ctx, cfg.Name, "result", err)
			}
		}
	}
}

// workerErr attributes a link failure: a context the caller killed wins
// over the transport error it caused.
func workerErr(ctx context.Context, name, stage string, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return fmt.Errorf("fleet: worker %q: %s: %w", name, stage, err)
}
