package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"cbs/internal/chaos"
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
	// Sweep supplies the escalation-ladder knobs (MaxAttempts, Backoff,
	// MaxNrhDoublings, Chaos for injected solve faults). Journal and
	// worker-pool fields are ignored: the coordinator owns those.
	Sweep sweep.Config
	// Parallel, when non-zero, overrides the parallel layout of the
	// shipped options for solves on this worker. The layout is
	// scheduling, not identity — fingerprint verification is unaffected —
	// so each worker sizes the three layers to its own cores. A Mid of 0,
	// here or in the shipped options, is resolved on the worker:
	// GOMAXPROCS/Top of its own host, at most Nint.
	Parallel core.Parallel
	// Chaos, when non-nil, arms the worker's links with the net.reset and
	// net.conn fault sites (testing only).
	Chaos *chaos.Injector
}

const (
	// dialTimeout bounds one dial of the coordinator.
	dialTimeout = 2 * time.Second
	// maxDialFailures is how many dials in a row may fail — refused,
	// unreachable, or hung up before the welcome — before Work gives up.
	maxDialFailures = 5
	// redialPause separates a failed dial from the next.
	redialPause = 100 * time.Millisecond
)

// Work dials the coordinator, registers, and solves assignments until the
// coordinator reports the sweep done (nil) or the context dies (ctx.Err()).
// A link lost after the coordinator welcomed this worker is redialed and
// the worker registers again under the same name, winning back its
// rendezvous share; the coordinator has already re-dispatched whatever the
// lost session held. Work gives up with an error wrapping ErrLinkLost when
// its first registration is refused, or after maxDialFailures dials in a
// row fail.
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

	joined := false // some session was welcomed
	failed := 0     // dials in a row that did not end in a welcome
	for attempt := int64(0); ; attempt++ {
		c, err := dial(ctx, cfg.Addr, cfg.Chaos, attempt)
		if err == nil {
			var welcomed bool
			welcomed, err = session(ctx, solve, cfg, newLink(c, cfg.Chaos, int(attempt)))
			switch {
			case err == nil:
				return nil
			case ctx.Err() != nil:
				return ctx.Err()
			case welcomed:
				joined, failed = true, 0
				continue
			case !joined:
				return fmt.Errorf("fleet: worker %q: registration refused: %w", cfg.Name, err)
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if failed++; failed >= maxDialFailures {
			return fmt.Errorf("fleet: worker %q: %d dials failed in a row: %w", cfg.Name, failed, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(redialPause):
		}
	}
}

// dial opens one conn to the coordinator; the attempt-th dial is the
// net.conn chaos site.
func dial(ctx context.Context, addr string, inj *chaos.Injector, attempt int64) (net.Conn, error) {
	//cbs:chaossite net.conn
	if inj.NetConn(attempt) {
		return nil, fmt.Errorf("%w: dial %s: %w", ErrLinkLost, addr, chaos.ErrInjected)
	}
	d := net.Dialer{Timeout: dialTimeout}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrLinkLost, err)
	}
	return c, nil
}

// session registers over l and solves assignments until the coordinator
// reports the sweep done (nil error) or the link is lost. It reports
// whether the coordinator welcomed this session.
func session(ctx context.Context, solve sweep.SolveFunc, cfg WorkerConfig, l *link) (welcomed bool, err error) {
	defer l.close()
	stop := context.AfterFunc(ctx, l.shut) // a dead context unblocks recv
	defer stop()

	opDigest := fingerprint.Operator(cfg.OperatorDesc)
	l.send(msg{Type: msgRegister, Name: cfg.Name, Operator: opDigest})
	welcome, err := l.recv()
	if err != nil {
		return false, err
	}
	if welcome.Type != msgWelcome || welcome.Opts == nil {
		return false, fmt.Errorf("%w: expected welcome, got %q", ErrLinkLost, welcome.Type)
	}
	if welcome.Operator != opDigest {
		return false, fmt.Errorf("fleet: coordinator solves a different operator (digest %s, ours %s)",
			welcome.Operator, opDigest)
	}
	opts := *welcome.Opts
	if (cfg.Parallel != core.Parallel{}) {
		opts.Parallel = cfg.Parallel
	}

	for {
		m, err := l.recv()
		if err != nil {
			return true, err
		}
		switch m.Type { // unknown types are ignored
		case msgDone:
			return true, nil
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
					return true, ctx.Err()
				}
				rec = sweep.RecordOf(er)
			}
			if err := l.send(msg{Type: msgResult, Index: m.Index, Record: &rec}); err != nil {
				return true, err
			}
			// Hand the processor to the link's writer, so the result ships
			// now and not when the next solve is next preempted.
			runtime.Gosched()
		}
	}
}
