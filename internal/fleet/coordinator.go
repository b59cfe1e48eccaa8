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
	"cbs/internal/comm"
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
	// TCP tunes the reliable links; IOTimeout*RetryBudget is the worker
	// failure-detection horizon: a worker whose link answers nothing for
	// that long is declared dead, one that is merely busy never is (its
	// link acks the coordinator's Naks while the solve runs).
	TCP comm.TCPOptions

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
	// with injected network faults (testing only).
	Chaos *chaos.Injector
}

// remote is the coordinator's proxy for one registered worker.
type remote struct {
	id       byte
	name     string
	rc       *comm.RConn
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
	nextID     byte
	workers    map[byte]*remote
	assignedTo []int         // worker id per energy, -1 if unowned
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
		nextID:     1,
		workers:    make(map[byte]*remote),
		assignedTo: make([]int, len(es)),
		report:     sweep.NewReport(es),
		finished:   make(chan struct{}),
	}
	for i, e := range es {
		co.keys[i] = fingerprint.Solve(cfg.OperatorDesc, e, shipped)
		co.assignedTo[i] = -1
	}

	if cfg.CheckpointPath != "" {
		fp := sweep.Fingerprint(cfg.OperatorDesc, es, shipped)
		var (
			recs []sweep.Record
			err  error
		)
		if cfg.Resume {
			co.journal, recs, err = sweep.Resume(cfg.CheckpointPath, fp)
		} else {
			co.journal, err = sweep.Create(cfg.CheckpointPath, fp)
		}
		if err != nil {
			return co.tally(), err
		}
		defer co.journal.Close()
		co.report.Restore(recs, cfg.RetryFailed, cfg.OnEnergy)
	}
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
			// unvalidated peer must only ever observe a typed link
			// failure, never sweep state.
			pending = append(pending, w)
			continue
		}
		ws = append(ws, w)
	}
	ferr := co.err
	co.mu.Unlock()
	ln.Close()
	for _, w := range pending {
		w.rc.Close()
	}
	for _, w := range ws {
		sendMsg(w.rc, msg{Type: msgDone}) // best effort
	}
	// Drain: let workers read the done frame and hang up on their own —
	// their serve loops retire them as the links die — before force-closing
	// whatever is left. Without the pause, closing a link with a worker
	// frame still unread (a Nak, a late result) can reset the conn under
	// the done frame.
	o := cfg.TCP.WithDefaults()
	drain := o.IOTimeout * time.Duration(o.RetryBudget) * 2
	if drain > 2*time.Second {
		drain = 2 * time.Second
	}
	deadline := time.Now().Add(drain)
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
		w.rc.Close()
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

// admit routes one accepted conn: a wildcard hello is a fresh registration,
// a known worker id is a reconnect of its existing link, and anything else
// is a stale identity (a worker already declared dead) and is refused so
// the process fails fast and can rejoin fresh.
func (co *coordinator) admit(c net.Conn) {
	o := co.cfg.TCP.WithDefaults()
	peer, expected, err := comm.AcceptHello(c, o.ConnectTimeout, o.MaxFrame)
	if err != nil {
		c.Close()
		return
	}

	if peer != comm.WildcardID {
		co.mu.Lock()
		w := co.workers[peer]
		co.mu.Unlock()
		if w == nil {
			c.Close()
			return
		}
		w.rc.Attach(c, expected) // errors surface via the link's pump
		return
	}

	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		c.Close()
		return
	}
	id, ok := co.allocIDLocked()
	if !ok {
		co.mu.Unlock()
		c.Close()
		return
	}
	rc := comm.AcceptLink(0, id, co.cfg.TCP)
	rc.SetChaos(co.cfg.Chaos)
	w := &remote{id: id, rc: rc, assigned: make(map[int]bool)}
	co.workers[id] = w
	co.mu.Unlock()

	if err := rc.Attach(c, expected); err != nil {
		co.drop(w)
		return
	}
	m, err := recvMsg(rc)
	if err != nil || m.Type != msgRegister || m.Name == "" || m.Operator != co.opDigest {
		co.drop(w)
		return
	}
	if err := sendMsg(rc, msg{Type: msgWelcome, ID: id, Operator: co.opDigest, Opts: &co.opts}); err != nil {
		co.drop(w)
		return
	}

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

	co.wg.Add(1)
	go func() {
		defer co.wg.Done()
		co.serve(w)
	}()
}

// allocIDLocked hands out worker slots 1..254 (0 is the coordinator, 255
// the wildcard).
func (co *coordinator) allocIDLocked() (byte, bool) {
	for n := 0; n < 254; n++ {
		id := co.nextID
		co.nextID++
		if co.nextID == comm.WildcardID {
			co.nextID = 1
		}
		if _, used := co.workers[id]; !used {
			return id, true
		}
	}
	return 0, false
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
		// Buffered-send semantics: a dead conn does not block dispatch,
		// and the link replays the assignment after any reconnect. A link
		// already failed typed is handled by its serve loop.
		sendMsg(best.rc, msg{Type: msgAssign, Index: i, Energy: co.es[i], Key: co.keys[i]})
		best.assigned[i] = true
		co.assignedTo[i] = int(best.id)
	}
}

// serve consumes one worker's messages until its link dies or the worker
// breaks the protocol. While it blocks in Recv the link Naks the worker once
// per IOTimeout; the worker's link answers (with an ack while it has nothing
// to send), so a worker busy in a long solve stays alive here and one that
// answers nothing for IOTimeout*RetryBudget fails the link typed.
func (co *coordinator) serve(w *remote) {
	for {
		m, err := recvMsg(w.rc)
		if err != nil {
			co.drop(w)
			return
		}
		// Message types this build does not know (an older peer's
		// keepalives) are ignored.
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

// drop declares a worker dead: its link is torn down, its identity is
// retired (a late reconnect is refused), and its outstanding energies are
// re-dispatched over the survivors.
func (co *coordinator) drop(w *remote) {
	co.mu.Lock()
	if co.workers[w.id] == w {
		delete(co.workers, w.id)
	}
	for i := range w.assigned {
		if co.assignedTo[i] == int(w.id) {
			co.assignedTo[i] = -1
		}
	}
	w.assigned = make(map[int]bool)
	co.dispatchLocked()
	co.mu.Unlock()
	w.rc.Close()
}

func sendMsg(rc *comm.RConn, m msg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return rc.Send(b)
}

func recvMsg(rc *comm.RConn) (msg, error) {
	body, err := rc.Recv()
	if err != nil {
		return msg{}, err
	}
	return decodeMsg(body)
}

// decodeMsg parses one link payload from the peer.
func decodeMsg(body []byte) (msg, error) {
	var m msg
	if err := json.Unmarshal(body, &m); err != nil {
		return m, fmt.Errorf("fleet: malformed message: %w", err)
	}
	return m, nil
}
