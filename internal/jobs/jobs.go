// Package jobs is the serving layer's job manager: submitted CBS work
// (single-energy solves, energy sweeps, band batches) runs on a bounded
// worker pool behind fixed-depth per-client queues. The two bounds are
// the backpressure policy: Workers caps concurrent solves at what the
// machine can actually run, QueueDepth caps accepted-but-unstarted work
// at what clients should be allowed to park, and a full queue rejects the
// submission with a typed error (ErrQueueFull — an HTTP 429 at the
// daemon layer) instead of blocking the accept loop or growing without
// bound. Dispatch is fair (sched.go): weighted round-robin across client
// IDs with a work-conserving per-client in-flight cap, so one chatty
// client cannot starve the rest.
//
// Lifecycle: queued → running → {done, failed, canceled}. Cancel kills a
// queued job immediately and cancels a running job's context — the sweep
// engine checkpoints completed energies on cancellation, so a canceled
// sweep leaves a resumable journal. Drain is the SIGTERM path: stop
// intake, cancel everything still queued, give in-flight jobs a grace
// period to finish, then cancel them too and wait — every task sees a
// context cancellation, never a hard kill.
//
// Persistence (store.go): with a Store configured, every lifecycle
// transition and progress tick is journaled to a crash-safe job log. A
// restarted manager replays the log and re-adopts unfinished jobs
// (Adopt): their tasks are rebuilt from the journaled request spec and
// re-enqueued under their original IDs, or typed-failed with
// ErrLostToRestart when the spec no longer rebuilds. Event sequence
// numbers survive the restart, so an SSE client reconnecting with
// Last-Event-ID resumes gaplessly (events.go).
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cbs/internal/chaos"
	"cbs/internal/core"
	"cbs/internal/negf"
	"cbs/internal/rescache"
	"cbs/internal/sweep"
)

// Typed sentinels of the job layer.
var (
	// ErrQueueFull rejects a submission when the fixed-depth queue is at
	// capacity: the server is saturated and the client should back off
	// and retry (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining rejects a submission during shutdown (HTTP 503).
	ErrDraining = errors.New("jobs: manager is draining")
	// ErrNotFound is an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
)

// Kind is the type of work a job carries.
type Kind string

const (
	KindSolve     Kind = "solve"
	KindSweep     Kind = "sweep"
	KindBands     Kind = "bands"
	KindTransport Kind = "transport"
)

// State is one rung of the job lifecycle.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Outcome is what a finished task produced: exactly one of Result
// (solve), Report (sweep/bands) or Curve (transport), plus how the result
// cache was involved.
type Outcome struct {
	Result *core.Result
	Report *sweep.Report
	Curve  *negf.Curve
	// CacheOutcome is the rescache path a solve took ("" for sweeps and
	// unfinished jobs).
	CacheOutcome rescache.Outcome
}

// Task is the unit of work a job runs. The context dies on job
// cancellation and manager drain; progress may be called after every
// completed step (energy) and must be safe for concurrent use.
type Task func(ctx context.Context, progress func(done, total int)) (Outcome, error)

// Submission is one unit of work offered to Submit: the task plus the
// identity the manager journals (Spec must be enough for the caller's
// RebuildFunc to reconstruct the task after a restart) and schedules by
// (Client, Weight).
type Submission struct {
	Kind Kind
	// Client is the fairness key ("" schedules under a shared default).
	Client string
	// Weight is the WRR share, clamped to 1..8 (0 means 1).
	Weight int
	// Fingerprint ties the job to its sweep journal / cache identity.
	Fingerprint string
	// Spec is the caller-defined request payload journaled with the job.
	Spec json.RawMessage
	Task Task
}

// RebuildFunc reconstructs a replayed job's task from its journaled
// submission. Returning an error (or a nil task) fails the job with
// ErrLostToRestart instead of re-running it.
type RebuildFunc func(rj ReplayedJob) (Task, error)

// Snapshot is the externally visible state of one job.
type Snapshot struct {
	ID          string
	Kind        Kind
	Client      string
	Weight      int
	Fingerprint string
	Spec        json.RawMessage
	State       State
	// Restored marks a job replayed from the log in a terminal state: its
	// lifecycle is authoritative but its result payload did not survive
	// the restart (re-run the request; sweep journals make it cheap).
	Restored  bool
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	// Done/Total are task progress (completed energies of a sweep; 0/0
	// when the task reports none).
	Done, Total int
	Outcome     Outcome
	Err         error
}

// Metrics is a snapshot of the manager's counters for /metrics.
type Metrics struct {
	Submitted  int64 // accepted submissions
	Rejected   int64 // ErrQueueFull rejections
	Completed  int64 // jobs that ended done
	Failed     int64 // jobs that ended failed
	Canceled   int64 // jobs that ended canceled
	Readopted  int64 // replayed jobs re-enqueued after restart
	Restored   int64 // replayed jobs restored in a terminal state
	LogErrors  int64 // best-effort job-log appends that failed
	QueueDepth int   // jobs accepted but not yet picked up
	InFlight   int   // jobs currently running
	// BusyNanos accumulates wall time spent inside tasks (divide by
	// Completed+Failed+Canceled-with-start for mean job latency).
	BusyNanos int64
}

// job is the manager's internal record.
type job struct {
	id          string
	seq         int
	kind        Kind
	client      string
	weight      int
	fingerprint string
	spec        json.RawMessage
	restored    bool
	task        Task
	ctx         context.Context
	cancel      context.CancelFunc
	events      *eventBuf

	mu        sync.Mutex
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	done      int
	total     int
	outcome   Outcome
	err       error
}

// snapshot copies the job under its lock.
func (j *job) snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID: j.id, Kind: j.kind, State: j.state,
		Client: j.client, Weight: j.weight,
		Fingerprint: j.fingerprint, Spec: j.spec, Restored: j.restored,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		Done: j.done, Total: j.total,
		Outcome: j.outcome, Err: j.err,
	}
}

// Config parameterizes the manager.
type Config struct {
	// Workers is the number of concurrent jobs (default 1).
	Workers int
	// QueueDepth is the accepted-but-unstarted bound (default 16).
	QueueDepth int
	// PerClientInFlight caps one client's running jobs while other
	// clients have queued work (work-conserving; default caps a client
	// at half the pool, minimum 1).
	PerClientInFlight int
	// Store persists every job transition (nil runs in-memory only).
	Store *Store
	// DrainGrace bounds Drain when its context has no deadline of its
	// own (0 waits indefinitely).
	DrainGrace time.Duration
	// Chaos optionally injects job-pickup faults (nil in production).
	Chaos *chaos.Injector
	// Clock substitutes time.Now in tests (nil uses time.Now).
	Clock func() time.Time
}

// Manager runs jobs on its worker pool. Construct with New; Drain ends it.
type Manager struct {
	cfg    Config
	wg     sync.WaitGroup
	killed atomic.Bool

	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	sched    *sched
	jobs     map[string]*job
	seq      int
	draining bool
	closed   bool
	metrics  Metrics
}

// New starts a manager with cfg.Workers workers. With a Store configured,
// call Adopt before accepting traffic so replayed jobs keep their IDs.
func New(cfg Config) *Manager {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 16
	}
	if cfg.PerClientInFlight < 1 {
		cfg.PerClientInFlight = (cfg.Workers + 1) / 2
		if cfg.PerClientInFlight < 1 {
			cfg.PerClientInFlight = 1
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	//cbs:ctxescape manager-owned base context: job lifetimes are detached from the constructing caller
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		sched:      newSched(cfg.PerClientInFlight),
		baseCtx:    ctx,
		cancelBase: cancel,
		jobs:       make(map[string]*job),
	}
	m.cond = sync.NewCond(&m.mu)
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// journal appends one record to the job log, if any. After Kill (the
// crash model) nothing reaches disk — exactly like the SIGKILL it stands
// in for.
func (m *Manager) journal(rec logRecord) error {
	if m.killed.Load() {
		return nil
	}
	return m.cfg.Store.append(rec)
}

// emit journals an event best-effort and publishes it to watchers. A
// failed append is counted (LogErrors) but does not stop the job: a lost
// running/progress/terminal record replays as an earlier state, and
// re-adoption plus the sweep journal make the re-run cheap.
func (m *Manager) emit(j *job, rec logRecord, ev Event) {
	if err := m.journal(rec); err != nil {
		m.mu.Lock()
		m.metrics.LogErrors++
		m.mu.Unlock()
	}
	j.events.publish(ev)
}

// Submit queues a task and returns its job ID. A full queue returns
// ErrQueueFull without accepting the job; a draining manager returns
// ErrDraining; a job whose "queued" record cannot be made durable is
// rejected with ErrJobLog — an accepted job is always recoverable.
func (m *Manager) Submit(sub Submission) (string, error) {
	if sub.Task == nil {
		return "", errors.New("jobs: submission without a task")
	}
	if sub.Kind == "" {
		sub.Kind = KindSolve
	}
	if sub.Client == "" {
		sub.Client = "default"
	}
	if sub.Weight < 1 {
		sub.Weight = 1
	}
	if sub.Weight > 8 {
		sub.Weight = 8
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return "", ErrDraining
	}
	if m.sched.depth >= m.cfg.QueueDepth {
		m.metrics.Rejected++
		return "", fmt.Errorf("%w: %d jobs queued, %d running", ErrQueueFull, m.sched.depth, m.metrics.InFlight)
	}
	m.seq++
	jctx, jcancel := context.WithCancel(m.baseCtx)
	j := &job{
		id:          fmt.Sprintf("j%06d", m.seq),
		seq:         m.seq,
		kind:        sub.Kind,
		client:      sub.Client,
		weight:      sub.Weight,
		fingerprint: sub.Fingerprint,
		spec:        sub.Spec,
		task:        sub.Task,
		ctx:         jctx,
		cancel:      jcancel,
		events:      newEventBuf(),
		state:       StateQueued,
		submitted:   m.cfg.Clock(),
	}
	// The queued record is the one append that must succeed: it is the
	// only durable proof the job exists, so a failure rejects the
	// submission instead of accepting work a restart would silently lose.
	seq := j.events.next()
	if err := m.journal(logRecord{
		Job: j.id, Seq: seq, Ev: evState, State: StateQueued,
		Kind: j.kind, Client: j.client, Weight: j.weight,
		Fingerprint: j.fingerprint, Spec: j.spec,
		Unix: j.submitted.UnixNano(),
	}); err != nil {
		jcancel()
		m.seq-- // the submission was never accepted
		m.metrics.Rejected++
		return "", err
	}
	j.events.publish(Event{Seq: seq, Ev: evState, State: StateQueued})
	m.jobs[j.id] = j
	m.sched.push(j)
	m.metrics.Submitted++
	m.cond.Signal()
	return j.id, nil
}

// Adopt replays the jobs recovered from the store into the manager:
// terminal jobs are restored as queryable snapshots, unfinished jobs are
// rebuilt and re-enqueued under their original IDs, and jobs that cannot
// be rebuilt fail with ErrLostToRestart instead of vanishing. Call once,
// after New and before accepting traffic. Returns (requeued, restored,
// failed) counts.
func (m *Manager) Adopt(replayed []ReplayedJob, rebuild RebuildFunc) (requeued, restored, failed int) {
	for _, rj := range replayed {
		switch m.adoptOne(rj, rebuild) {
		case adoptRequeued:
			requeued++
		case adoptRestored:
			restored++
		case adoptFailed:
			failed++
		}
	}
	return requeued, restored, failed
}

// adoptOne's outcomes.
const (
	adoptSkipped = iota // duplicate ID: first record wins
	adoptRequeued
	adoptRestored
	adoptFailed
)

// adoptOne folds one replayed job into the manager.
func (m *Manager) adoptOne(rj ReplayedJob, rebuild RebuildFunc) int {
	m.mu.Lock()
	if _, dup := m.jobs[rj.ID]; dup {
		m.mu.Unlock()
		return adoptSkipped
	}
	if n := replayedSeq(rj.ID); n > m.seq {
		m.seq = n // new submissions must number past every replayed ID
	}
	m.mu.Unlock()

	j := &job{
		id:          rj.ID,
		seq:         replayedSeq(rj.ID),
		kind:        rj.Kind,
		client:      rj.Client,
		weight:      rj.Weight,
		fingerprint: rj.Fingerprint,
		spec:        rj.Spec,
		events:      newEventBuf(),
		state:       rj.State,
		submitted:   rj.Submitted,
		started:     rj.Started,
		finished:    rj.Finished,
		done:        rj.Done,
		total:       rj.Total,
	}
	if j.client == "" {
		j.client = "default"
	}
	if j.weight < 1 {
		j.weight = 1
	}
	j.events.seed(rj.Events)

	if rj.State.Terminal() {
		// The lifecycle survived; the result payload did not. The job
		// stays resolvable (GET reports its terminal state) and Restored
		// tells the client to resubmit if it wants the numbers — the
		// sweep journal turns that re-run into a replay.
		j.restored = true
		if rj.Err != "" {
			j.err = errors.New(rj.Err)
		}
		m.register(j)
		m.mu.Lock()
		m.metrics.Restored++
		m.mu.Unlock()
		return adoptRestored
	}

	// Unfinished pre-crash job: rebuild its task from the journaled spec
	// and re-enqueue it. Any failure here must still resolve the job —
	// a client polling its pre-crash ID gets a typed terminal state, not
	// a 404.
	var task Task
	//cbs:chaossite jobs.adopt
	err := m.cfg.Chaos.AdoptFault(j.seq)
	if err == nil {
		if rebuild == nil {
			err = errors.New("no rebuild function")
		} else {
			task, err = rebuild(rj)
			if err == nil && task == nil {
				err = fmt.Errorf("no task for kind %s", j.kind)
			}
		}
	}
	if err != nil {
		j.state = StateFailed
		j.err = fmt.Errorf("%w: %w", ErrLostToRestart, err)
		j.finished = m.cfg.Clock()
		m.register(j)
		m.mu.Lock()
		m.metrics.Failed++
		m.mu.Unlock()
		seq := j.events.next()
		m.emit(j, logRecord{Job: j.id, Seq: seq, Ev: evState, State: StateFailed, Err: j.err.Error(), Unix: j.finished.UnixNano()},
			Event{Seq: seq, Ev: evState, State: StateFailed, Err: j.err.Error(), Final: true})
		return adoptFailed
	}

	j.task = task
	j.ctx, j.cancel = context.WithCancel(m.baseCtx)
	j.state = StateQueued
	// Journal the re-adoption (with full identity, like a fresh submit)
	// before a worker can touch the job: after another crash the job is
	// still whole even if earlier records were lost to a torn tail.
	seq := j.events.next()
	m.emit(j, logRecord{
		Job: j.id, Seq: seq, Ev: evState, State: StateQueued,
		Kind: j.kind, Client: j.client, Weight: j.weight,
		Fingerprint: j.fingerprint, Spec: j.spec,
		Unix: m.cfg.Clock().UnixNano(),
	}, Event{Seq: seq, Ev: evState, State: StateQueued})
	m.register(j)
	m.mu.Lock()
	m.metrics.Readopted++
	m.sched.push(j)
	m.cond.Signal()
	m.mu.Unlock()
	return adoptRequeued
}

// register adds an adopted job to the ID map.
func (m *Manager) register(j *job) {
	m.mu.Lock()
	m.jobs[j.id] = j
	m.mu.Unlock()
}

// Get returns the snapshot of a job.
func (m *Manager) Get(id string) (Snapshot, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j.snapshot(), nil
}

// Watch opens the job's event stream: every buffered event with sequence
// number greater than afterSeq (0 replays everything), plus — while the
// job is live — a channel of subsequent events and a cancel function. For
// a finished job the channel is nil. A watcher that falls subBuffer
// events behind is disconnected (channel closes before a Final event) and
// should re-Watch from its last seen sequence number.
func (m *Manager) Watch(id string, afterSeq int64) ([]Event, <-chan Event, func(), error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	past, ch, cancel := j.events.watch(afterSeq)
	return past, ch, cancel, nil
}

// Cancel stops a job: a queued job is marked canceled and never runs, a
// running job's context is canceled (the task decides how fast to wind
// down; sweeps checkpoint first). Canceling a finished job is a no-op.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateCanceled
		j.err = context.Canceled
		j.finished = m.cfg.Clock()
		finished := j.finished
		j.mu.Unlock()
		m.mu.Lock()
		m.metrics.Canceled++
		m.mu.Unlock()
		j.cancel()
		seq := j.events.next()
		m.emit(j, logRecord{Job: j.id, Seq: seq, Ev: evState, State: StateCanceled, Err: context.Canceled.Error(), Unix: finished.UnixNano()},
			Event{Seq: seq, Ev: evState, State: StateCanceled, Err: context.Canceled.Error(), Final: true})
		return nil
	}
	j.mu.Unlock()
	j.cancel()
	return nil
}

// Metrics returns a counter snapshot.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	mt := m.metrics
	mt.QueueDepth = m.sched.depth
	return mt
}

// Draining reports whether the manager has begun shutdown.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain shuts the manager down: intake stops (Submit returns ErrDraining),
// queued jobs are canceled without running, and in-flight jobs get until
// ctx expires — or Config.DrainGrace, when ctx carries no deadline — to
// finish on their own before their contexts are canceled too. Drain
// always waits for the workers to exit — when it returns, no task is
// running, every journal a canceled sweep flushes is on disk, and the job
// log is closed. The returned error is ctx.Err() if the grace period
// expired (in-flight work was force-canceled), nil if everything finished
// in time.
func (m *Manager) Drain(ctx context.Context) error {
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && m.cfg.DrainGrace > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.cfg.DrainGrace)
		defer cancel()
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.draining = true
	// Empty every client queue under the lock: Submit can no longer add,
	// and workers skip jobs whose state is already terminal.
	drained := m.sched.drainAll()
	var canceled []*job
	for _, j := range drained {
		j.mu.Lock()
		if j.state == StateQueued {
			j.state = StateCanceled
			j.err = ErrDraining
			j.finished = m.cfg.Clock()
			m.metrics.Canceled++
			canceled = append(canceled, j)
			j.cancel()
		}
		j.mu.Unlock()
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	for _, j := range canceled {
		seq := j.events.next()
		m.emit(j, logRecord{Job: j.id, Seq: seq, Ev: evState, State: StateCanceled, Err: ErrDraining.Error(), Unix: j.finished.UnixNano()},
			Event{Seq: seq, Ev: evState, State: StateCanceled, Err: ErrDraining.Error(), Final: true})
	}

	workersDone := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(workersDone)
	}()
	var forced error
	select {
	case <-workersDone:
	case <-ctx.Done():
		// Grace expired: cancel in-flight tasks and wait for real. Sweeps
		// checkpoint completed energies on the way out.
		forced = ctx.Err()
		m.cancelBase()
		<-workersDone
	}
	m.cancelBase()
	m.cfg.Store.Close() //nolint:errcheck // every record was already fsynced on append
	return forced
}

// Kill models a SIGKILL for the restart tests: no drain, no grace, and —
// decisively — no further journaling, so the log is left exactly as a
// crash at this instant would leave it. In-flight tasks see their
// contexts die; Kill waits for the workers to unwind (goroutine hygiene
// for tests) and closes the log file so a successor can reopen the path.
func (m *Manager) Kill() {
	m.killed.Store(true)
	m.mu.Lock()
	m.draining = true
	m.closed = true
	m.sched.drainAll() // queued jobs die silently, like the process did
	m.cond.Broadcast()
	m.mu.Unlock()
	m.cancelBase()
	m.wg.Wait()
	m.cfg.Store.Close() //nolint:errcheck // the crash model does not care
}

// worker pulls jobs off the fair queue until the manager closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j := m.dequeue()
		if j == nil {
			return
		}
		m.run(j)
		m.mu.Lock()
		m.sched.release(j.client)
		m.cond.Broadcast() // a freed slot may unblock a capped client
		m.mu.Unlock()
	}
}

// dequeue blocks until the scheduler yields a job or the manager closes.
func (m *Manager) dequeue() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if j := m.sched.pick(); j != nil {
			return j
		}
		if m.closed {
			return nil
		}
		m.cond.Wait()
	}
}

// run executes one job through its lifecycle.
func (m *Manager) run(j *job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = m.cfg.Clock()
	started := j.started
	j.mu.Unlock()
	m.mu.Lock()
	m.metrics.InFlight++
	m.mu.Unlock()
	seq := j.events.next()
	m.emit(j, logRecord{Job: j.id, Seq: seq, Ev: evState, State: StateRunning, Unix: started.UnixNano()},
		Event{Seq: seq, Ev: evState, State: StateRunning})

	var (
		out Outcome
		err error
	)
	// tick orders the progress callbacks of concurrent sweep workers: each
	// takes its seq, journals and publishes as one step, so the log and the
	// stream see seqs in order, and a tick overtaken by a later one is
	// dropped, so Done never goes backwards.
	var tick sync.Mutex
	//cbs:chaossite jobs.run
	if err = m.cfg.Chaos.JobFault(j.seq); err == nil {
		out, err = j.task(j.ctx, func(done, total int) {
			tick.Lock()
			defer tick.Unlock()
			j.mu.Lock()
			if done < j.done {
				j.mu.Unlock()
				return
			}
			j.done, j.total = done, total
			j.mu.Unlock()
			pseq := j.events.next()
			m.emit(j, logRecord{Job: j.id, Seq: pseq, Ev: evProgress, Done: done, Total: total, Unix: m.cfg.Clock().UnixNano()},
				Event{Seq: pseq, Ev: evProgress, State: StateRunning, Done: done, Total: total})
		})
	}

	finished := m.cfg.Clock()
	j.mu.Lock()
	j.finished = finished
	j.outcome = out
	j.err = err
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, context.Canceled) || errors.Is(err, ErrDraining):
		j.state = StateCanceled
	default:
		j.state = StateFailed
	}
	state := j.state
	busy := finished.Sub(j.started)
	j.mu.Unlock()

	m.mu.Lock()
	m.metrics.InFlight--
	m.metrics.BusyNanos += int64(busy)
	switch state {
	case StateDone:
		m.metrics.Completed++
	case StateCanceled:
		m.metrics.Canceled++
	default:
		m.metrics.Failed++
	}
	m.mu.Unlock()

	errText := ""
	if err != nil {
		errText = err.Error()
	}
	seq = j.events.next()
	m.emit(j, logRecord{Job: j.id, Seq: seq, Ev: evState, State: state, Err: errText, Unix: finished.UnixNano()},
		Event{Seq: seq, Ev: evState, State: state, Err: errText, Final: true})
}
