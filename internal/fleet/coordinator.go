package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"cbs/internal/chaos"
	"cbs/internal/core"
	"cbs/internal/fingerprint"
	"cbs/internal/sweep"
)

// CoordinatorConfig tunes the coordinator end of a fleet sweep.
type CoordinatorConfig struct {
	// Addr is the TCP listen address workers dial (":0" for an ephemeral
	// port; the bound address is reported via OnListen).
	Addr string
	// OnListen, when non-nil, receives the bound listen address before any
	// worker is accepted — tests and launchers use it with Addr ":0".
	OnListen func(addr string)
	// MinWorkers gates the first dispatch: no energy is assigned until
	// this many workers have registered (default 1). Later departures do
	// not re-raise the gate — survivors keep the sweep moving.
	MinWorkers int

	// OperatorDesc identifies the physics; it feeds every assignment's
	// solve fingerprint and the journal fingerprint.
	OperatorDesc string
	// CheckpointPath / Resume / RetryFailed journal the sweep exactly as
	// sweep.Config does: completed energies are appended as they arrive,
	// and a resumed journal's energies are restored instead of re-solved.
	CheckpointPath string
	Resume         bool
	RetryFailed    bool
	// OnEnergy, when non-nil, observes each energy reaching a terminal
	// state (solved by a worker, or restored from the journal). Called
	// from coordinator goroutines; must be safe for concurrent use.
	OnEnergy func(sweep.EnergyResult)

	// Chaos, when non-nil, arms the coordinator side of every worker link
	// with the net.reset fault site (testing only).
	Chaos *chaos.Injector
}

// drainTimeout bounds how long a finished sweep waits for its workers to
// read the done message and hang up before their links are closed.
const drainTimeout = 2 * time.Second

// remote is the coordinator's proxy for one worker session.
type remote struct {
	id       int    // session number: admission order, never reused
	name     string // set once the registration is accepted
	link     *link
	assigned map[int]bool // outstanding energy indices
}

// coordinator is the mutable state of one Coordinate call.
type coordinator struct {
	cfg      CoordinatorConfig
	opDigest string
	es       []float64
	opts     core.Options // shipped to workers; Chaos stripped
	keys     []string     // fingerprint.Solve per energy

	mu         sync.Mutex
	closed     bool
	open       bool // MinWorkers satisfied at least once
	seen       int  // registrations ever
	nextID     int
	workers    map[int]*remote
	assignedTo []int         // session id per energy, -1 if unowned
	report     *sweep.Report // an energy is done once its Status leaves Skipped
	journal    *sweep.Journal
	remaining  int
	err        error // first fatal error (checkpoint failure)

	finished   chan struct{}
	finishOnce sync.Once
	wg         sync.WaitGroup
}

// Coordinate serves one sweep to a fleet of workers and blocks until every
// energy has a terminal result, the context dies, or the checkpoint fails.
// The report mirrors sweep.Run's: every energy in order, with energies the
// fleet never completed marked Skipped.
func Coordinate(ctx context.Context, es []float64, opts core.Options, cfg CoordinatorConfig) (*sweep.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.MinWorkers < 1 {
		cfg.MinWorkers = 1
	}
	shipped := opts
	shipped.Chaos = nil // fault injectors never cross the wire

	co := &coordinator{
		cfg:        cfg,
		opDigest:   fingerprint.Operator(cfg.OperatorDesc),
		es:         es,
		opts:       shipped,
		keys:       make([]string, len(es)),
		workers:    make(map[int]*remote),
		assignedTo: make([]int, len(es)),
		report:     sweep.NewReport(es),
		finished:   make(chan struct{}),
	}
	for i, e := range es {
		co.keys[i] = fingerprint.Solve(cfg.OperatorDesc, e, shipped)
		co.assignedTo[i] = -1
	}

	// The checkpoint opens exactly as sweep.Run opens it; the fleet
	// journal is not armed for chaos.
	journal, err := co.report.OpenJournal(es, shipped, sweep.Config{
		CheckpointPath: cfg.CheckpointPath,
		Resume:         cfg.Resume,
		OperatorDesc:   cfg.OperatorDesc,
		RetryFailed:    cfg.RetryFailed,
		OnEnergy:       cfg.OnEnergy,
	})
	if err != nil {
		return co.tally(), err
	}
	co.journal = journal
	defer journal.Close()
	for i := range es {
		if !co.doneLocked(i) {
			co.remaining++
		}
	}
	if co.remaining == 0 {
		return co.tally(), nil
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return co.tally(), err
	}
	if cfg.OnListen != nil {
		cfg.OnListen(ln.Addr().String())
	}
	co.wg.Add(1)
	go co.acceptLoop(ln)

	select {
	case <-co.finished:
	case <-ctx.Done():
	}

	co.mu.Lock()
	co.closed = true
	ws := make([]*remote, 0, len(co.workers))
	var pending []*remote
	for _, w := range co.workers {
		if w.name == "" {
			// Mid-registration link: it was never welcomed (and may yet be
			// refused), so it gets a hangup, not the done broadcast — an
			// unvalidated peer must only ever observe a lost link, never
			// sweep state.
			pending = append(pending, w)
			continue
		}
		ws = append(ws, w)
	}
	ferr := co.err
	co.mu.Unlock()
	ln.Close()
	for _, w := range pending {
		w.link.close()
	}
	for _, w := range ws {
		w.link.send(msg{Type: msgDone}) // best effort
	}
	// Drain: let workers read the done message and hang up on their own —
	// their serve loops retire them as the links die — before force-closing
	// whatever is left. Without the pause, closing a link with a worker
	// frame still unread (a heartbeat, a late result) can reset the conn
	// under the done message.
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		co.mu.Lock()
		n := len(co.workers)
		co.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, w := range ws {
		w.link.close()
	}
	co.wg.Wait()

	report := co.tally()
	if ferr != nil {
		return report, ferr
	}
	if err := ctx.Err(); err != nil && report.Skipped > 0 {
		return report, err
	}
	return report, nil
}

// tally seals the report: energies without a terminal result are still
// Skipped, exactly as sweep.Run reports them.
func (co *coordinator) tally() *sweep.Report {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.report.Tally()
	return co.report
}

// doneLocked reports whether energy i has its terminal result.
func (co *coordinator) doneLocked(i int) bool {
	return co.report.Results[i].Status != sweep.StatusSkipped
}

// fatal records the first sweep-fatal error and ends the sweep.
func (co *coordinator) fatal(err error) {
	co.mu.Lock()
	if co.err == nil {
		co.err = err
	}
	co.mu.Unlock()
	co.finish()
}

func (co *coordinator) finish() {
	co.finishOnce.Do(func() { close(co.finished) })
}

// acceptLoop admits conns until the listener closes.
func (co *coordinator) acceptLoop(ln net.Listener) {
	defer co.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		co.wg.Add(1)
		go func() {
			defer co.wg.Done()
			co.admit(c)
		}()
	}
}

// admit runs one accepted conn as a worker session: its first message must
// register a named worker solving this operator, or the conn is hung up. An
// accepted worker is welcomed with the solve options, takes its share of the
// energies and is served until its link is lost.
func (co *coordinator) admit(c net.Conn) {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		c.Close()
		return
	}
	co.nextID++
	w := &remote{id: co.nextID, assigned: make(map[int]bool)}
	w.link = newLink(c, co.cfg.Chaos, w.id)
	co.workers[w.id] = w
	co.mu.Unlock()

	m, err := w.link.recv()
	if err != nil || m.Type != msgRegister || m.Name == "" || m.Operator != co.opDigest {
		co.drop(w)
		return
	}
	w.link.send(msg{Type: msgWelcome, Operator: co.opDigest, Opts: &co.opts})

	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		co.drop(w)
		return
	}
	w.name = m.Name
	co.seen++
	if co.seen >= co.cfg.MinWorkers {
		co.open = true
	}
	co.dispatchLocked()
	co.mu.Unlock()

	co.serve(w)
}

// dispatchLocked assigns every unowned incomplete energy to the live
// worker winning its rendezvous hash. Energies already owned by a live
// worker are never migrated — only death returns them to the pool.
func (co *coordinator) dispatchLocked() {
	if !co.open || co.closed {
		return
	}
	for i := range co.es {
		if co.doneLocked(i) || co.assignedTo[i] >= 0 {
			continue
		}
		var best *remote
		var bestScore uint64
		for _, w := range co.workers {
			if w.name == "" {
				continue // mid-registration
			}
			s := rendezvous(co.keys[i], w.name)
			if best == nil || s > bestScore || (s == bestScore && w.id > best.id) {
				best, bestScore = w, s
			}
		}
		if best == nil {
			return // no live workers; the next registration redispatches
		}
		// send only queues for the link's writer, so no conn write happens
		// under co.mu; a lost link is its serve loop's to drop.
		best.link.send(msg{Type: msgAssign, Index: i, Energy: co.es[i], Key: co.keys[i]})
		best.assigned[i] = true
		co.assignedTo[i] = best.id
	}
}

// serve consumes one worker's messages until its link is lost or the worker
// breaks the protocol. The worker's writer heartbeats while it solves, so a
// worker busy in a long solve stays alive here, and one from which nothing
// arrives for the horizon is lost.
func (co *coordinator) serve(w *remote) {
	for {
		m, err := w.link.recv()
		if err != nil {
			co.drop(w)
			return
		}
		// Message types this build does not know are ignored.
		if m.Type == msgResult && !co.onResult(w, m) {
			co.drop(w) // its energies, this one included, return to the pool
			return
		}
	}
}

// validResult reports whether a result message is one this sweep could have
// asked for: a record for the energy it claims to answer — same index, the
// very float64 that was assigned (JSON round-trips float64 exactly) — in a
// terminal status. Anything else is a protocol violation: journaling it
// would let a resume serve one energy's physics as another's.
func (co *coordinator) validResult(m msg) bool {
	if m.Record == nil || m.Index < 0 || m.Index >= len(co.es) {
		return false
	}
	rec := m.Record
	if rec.Index != m.Index || math.Float64bits(rec.Energy) != math.Float64bits(co.es[m.Index]) {
		return false
	}
	switch rec.Status {
	case sweep.StatusOK, sweep.StatusDegraded, sweep.StatusFailed:
		return true
	}
	return false
}

// onResult records one assignment's terminal outcome and reports whether the
// message was acceptable (see validResult). Results for already-completed
// energies (a worker presumed dead finishing late, after its energy was
// re-dispatched and solved elsewhere) are dropped: first writer wins, and
// determinism holds because every solve of an energy computes the same
// physics.
func (co *coordinator) onResult(w *remote, m msg) bool {
	if !co.validResult(m) {
		return false
	}
	co.mu.Lock()
	delete(w.assigned, m.Index)
	if co.doneLocked(m.Index) {
		co.mu.Unlock()
		return true
	}
	er := m.Record.Restore()
	co.report.Results[m.Index] = er
	co.remaining--
	rem := co.remaining
	var jerr error
	if co.journal != nil {
		jerr = co.journal.Append(*m.Record)
	}
	cb := co.cfg.OnEnergy
	co.mu.Unlock()
	if cb != nil {
		cb(er)
	}
	if jerr != nil {
		// A checkpoint failure is sweep-fatal, exactly as in sweep.Run:
		// results the journal cannot record would be lost to a resume.
		co.fatal(fmt.Errorf("fleet: checkpoint failed: %w", jerr))
		return true
	}
	if rem == 0 {
		co.finish()
	}
	return true
}

// drop declares a worker session dead: its link is torn down and its
// outstanding energies are re-dispatched over the survivors. A worker that
// is still alive comes back as a new session.
func (co *coordinator) drop(w *remote) {
	co.mu.Lock()
	delete(co.workers, w.id)
	for i := range w.assigned {
		if co.assignedTo[i] == w.id {
			co.assignedTo[i] = -1
		}
	}
	w.assigned = make(map[int]bool)
	co.dispatchLocked()
	co.mu.Unlock()
	w.link.close()
}

// decodeMsg parses one link payload from the peer.
func decodeMsg(body []byte) (msg, error) {
	var m msg
	if err := json.Unmarshal(body, &m); err != nil {
		return m, fmt.Errorf("fleet: malformed message: %w", err)
	}
	return m, nil
}
