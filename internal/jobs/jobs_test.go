package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbs/internal/chaos"
	"cbs/internal/core"
	"cbs/internal/journal"
)

// submit is shorthand for the plain single-task submissions of these
// tests (no client identity, no spec — the fairness and persistence
// tests build full Submissions themselves).
func submit(m *Manager, kind Kind, task Task) (string, error) {
	return m.Submit(Submission{Kind: kind, Task: task})
}

// blockingTask returns a task that reports in on started (if non-nil) and
// holds until release closes.
func blockingTask(started chan<- string, release <-chan struct{}, id string) Task {
	return func(ctx context.Context, progress func(int, int)) (Outcome, error) {
		if started != nil {
			started <- id
		}
		select {
		case <-release:
			return Outcome{Result: &core.Result{Energy: 1}}, nil
		case <-ctx.Done():
			return Outcome{}, ctx.Err()
		}
	}
}

// TestQueueOverflowRejectsTyped: with the pool busy and the queue full,
// the next submission is rejected with ErrQueueFull — it does not block
// and it is not silently dropped.
func TestQueueOverflowRejectsTyped(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 2})
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)

	// One running + two queued fills the system: submit the first job,
	// wait for the worker to hold it, then fill the queue behind it.
	ids := make([]string, 3)
	for i := range ids {
		id, err := submit(m, KindSolve, blockingTask(started, release, "t"))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
		if i == 0 {
			<-started // the worker holds job 1; jobs 2 and 3 sit in the queue
		}
	}

	submitDone := make(chan error, 1)
	go func() {
		_, err := submit(m, KindSolve, blockingTask(nil, release, "overflow"))
		submitDone <- err
	}()
	select {
	case err := <-submitDone:
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("overflow submission blocked instead of rejecting")
	}
	if mt := m.Metrics(); mt.Rejected != 1 || mt.Submitted != 3 {
		t.Errorf("metrics %+v, want 3 submitted 1 rejected", mt)
	}
	// The rejected submission must not have registered a job.
	for _, id := range ids {
		if _, err := m.Get(id); err != nil {
			t.Errorf("accepted job %s lost: %v", id, err)
		}
	}
}

// TestJobLifecycle: queued → running → done with outcome and progress
// visible through Get.
func TestJobLifecycle(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	progressed := make(chan struct{})
	id, err := submit(m, KindSweep, func(ctx context.Context, progress func(int, int)) (Outcome, error) {
		progress(3, 7)
		close(progressed)
		<-release
		return Outcome{Result: &core.Result{Energy: 2.5}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-progressed
	snap, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateRunning || snap.Done != 3 || snap.Total != 7 {
		t.Errorf("mid-flight snapshot %+v, want running 3/7", snap)
	}
	close(release)
	waitState(t, m, id, StateDone)
	snap, _ = m.Get(id)
	if snap.Outcome.Result == nil || snap.Outcome.Result.Energy != 2.5 {
		t.Errorf("outcome %+v, want result energy 2.5", snap.Outcome)
	}
	if snap.Finished.Before(snap.Started) || snap.Started.Before(snap.Submitted) {
		t.Errorf("timestamps out of order: %+v", snap)
	}
	if _, err := m.Get("j999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id err = %v, want ErrNotFound", err)
	}
}

// TestCancelQueuedAndRunning: a queued job never runs; a running job's
// context dies and the job ends canceled.
func TestCancelQueuedAndRunning(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4})
	started := make(chan string, 4)
	release := make(chan struct{})
	defer close(release)

	runID, err := submit(m, KindSolve, blockingTask(started, release, "running"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var ran sync.Map
	queuedID, err := submit(m, KindSolve, func(ctx context.Context, _ func(int, int)) (Outcome, error) {
		ran.Store("queued", true)
		return Outcome{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := m.Cancel(queuedID); err != nil {
		t.Fatal(err)
	}
	snap, _ := m.Get(queuedID)
	if snap.State != StateCanceled {
		t.Errorf("queued job after cancel: %s, want canceled", snap.State)
	}
	if err := m.Cancel(runID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, runID, StateCanceled)
	snap, _ = m.Get(runID)
	if !errors.Is(snap.Err, context.Canceled) {
		t.Errorf("running job err = %v, want context.Canceled", snap.Err)
	}
	if _, found := ran.Load("queued"); found {
		t.Error("canceled queued job ran anyway")
	}
	mt := m.Metrics()
	if mt.Canceled != 2 {
		t.Errorf("canceled count = %d, want 2", mt.Canceled)
	}
}

// TestDrain: intake stops with a typed error, queued jobs are canceled
// unstarted, in-flight jobs finish within the grace period, and Drain
// waits for them.
func TestDrain(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4})
	started := make(chan string, 1)
	release := make(chan struct{})
	runID, err := submit(m, KindSolve, blockingTask(started, release, "inflight"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queuedID, err := submit(m, KindSolve, blockingTask(nil, release, "queued"))
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release) // the in-flight job finishes inside the grace period
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if _, err := submit(m, KindSolve, blockingTask(nil, release, "late")); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining err = %v, want ErrDraining", err)
	}
	snap, _ := m.Get(runID)
	if snap.State != StateDone {
		t.Errorf("in-flight job ended %s, want done (finished within grace)", snap.State)
	}
	snap, _ = m.Get(queuedID)
	if snap.State != StateCanceled || !errors.Is(snap.Err, ErrDraining) {
		t.Errorf("queued job ended %s err %v, want canceled/ErrDraining", snap.State, snap.Err)
	}
}

// TestDrainForceCancelsAfterGrace: a job that ignores the grace period is
// context-canceled, and Drain still waits for it to unwind.
func TestDrainForceCancelsAfterGrace(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4})
	started := make(chan string, 1)
	id, err := submit(m, KindSolve, func(ctx context.Context, _ func(int, int)) (Outcome, error) {
		started <- "x"
		<-ctx.Done() // refuses to finish until canceled
		return Outcome{}, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want DeadlineExceeded (grace expired)", err)
	}
	snap, _ := m.Get(id)
	if snap.State != StateCanceled {
		t.Errorf("stubborn job ended %s, want canceled", snap.State)
	}
}

// TestChaosJobFault: an injected pickup fault fails the job with the
// typed chaos error and the pool keeps serving.
func TestChaosJobFault(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 8, Chaos: chaos.New(1, chaos.Config{JobFault: 1})})
	id, err := submit(m, KindSolve, func(ctx context.Context, _ func(int, int)) (Outcome, error) {
		t.Error("task ran despite injected pickup fault")
		return Outcome{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, id, StateFailed)
	snap, _ := m.Get(id)
	if !errors.Is(snap.Err, chaos.ErrInjected) {
		t.Errorf("err = %v, want chaos.ErrInjected", snap.Err)
	}
	if mt := m.Metrics(); mt.Failed != 1 {
		t.Errorf("failed count = %d, want 1", mt.Failed)
	}
}

// chaosSeed reads the CI chaos seed matrix (CBS_CHAOS_SEED, default 1) so
// each matrix entry faults a different subset of jobs.
func chaosSeed() int64 {
	if s := os.Getenv("CBS_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 1
}

// TestChaosSeedMatrix drives the pool under a partial job-fault rate:
// whichever jobs the seed picks must fail with the typed chaos error, the
// rest must run to completion, and the counters must reconcile — a faulty
// pickup never wedges a worker or leaks a queue slot.
func TestChaosSeedMatrix(t *testing.T) {
	in := chaos.New(chaosSeed(), chaos.Config{JobFault: 0.3})
	m := New(Config{Workers: 2, QueueDepth: 64, Chaos: in})
	const n = 32
	var ran atomic.Int64
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		id, err := submit(m, KindSolve, func(ctx context.Context, _ func(int, int)) (Outcome, error) {
			ran.Add(1)
			return Outcome{}, nil
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	done, failed := 0, 0
	for _, id := range ids {
		deadline := time.Now().Add(5 * time.Second)
		for {
			snap, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if snap.State.Terminal() {
				switch snap.State {
				case StateDone:
					done++
				case StateFailed:
					failed++
					if !errors.Is(snap.Err, chaos.ErrInjected) {
						t.Errorf("job %s failed with %v, want chaos.ErrInjected", id, snap.Err)
					}
				default:
					t.Errorf("job %s ended %s under job faults", id, snap.State)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, snap.State)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if done+failed != n {
		t.Fatalf("done %d + failed %d != %d submitted", done, failed, n)
	}
	if int(ran.Load()) != done {
		t.Errorf("%d tasks ran but %d jobs are done: a faulted pickup must not run its task", ran.Load(), done)
	}
	if mt := m.Metrics(); mt.Completed != int64(done) || mt.Failed != int64(failed) || mt.InFlight != 0 {
		t.Errorf("metrics %+v do not reconcile with done=%d failed=%d", mt, done, failed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Errorf("drain after chaos run: %v", err)
	}
}

// waitState polls until the job reaches want or the test times out.
func waitState(t *testing.T, m *Manager, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	snap, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s, want %s", id, snap.State, want)
}

// TestConcurrentProgressInOrder: a task whose energies finish on several
// goroutines at once ticks progress concurrently, as a sweep with more than
// one worker does. Each tick's seq, journal record and published event must
// come out in one order and Done must never go backwards: the watched
// stream has strictly increasing seqs and non-decreasing Done, and the job
// log replays in seq order.
func TestConcurrentProgressInOrder(t *testing.T) {
	const tickers, ticks = 8, 25
	path := filepath.Join(t.TempDir(), "jobs.log")
	st, _ := openStore(t, path, "op-v1")
	m := New(Config{Workers: 1, QueueDepth: 4, Store: st})
	release := make(chan struct{})
	id, err := submit(m, KindSweep, func(ctx context.Context, progress func(int, int)) (Outcome, error) {
		<-release
		var done atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < tickers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < ticks; k++ {
					progress(int(done.Add(1)), tickers*ticks)
				}
			}()
		}
		wg.Wait()
		return Outcome{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	events, live, cancel, err := m.Watch(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	// A subscriber that falls subBuffer events behind is cut off; resume
	// from the last seen seq as an SSE client would.
	deadline := time.After(10 * time.Second)
	for live != nil {
		select {
		case ev, ok := <-live:
			if ok {
				events = append(events, ev)
				continue
			}
			cancel()
			var past []Event
			past, live, cancel, err = m.Watch(id, events[len(events)-1].Seq)
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, past...)
		case <-deadline:
			t.Fatal("the event stream never ended")
		}
	}
	cancel()

	check := func(where string, evs []Event) {
		t.Helper()
		lastDone := 0
		for i, ev := range evs {
			if i > 0 && ev.Seq <= evs[i-1].Seq {
				t.Fatalf("%s: seq %d after %d", where, ev.Seq, evs[i-1].Seq)
			}
			if ev.Ev == evProgress {
				if ev.Done < lastDone {
					t.Fatalf("%s: done went back from %d to %d at seq %d", where, lastDone, ev.Done, ev.Seq)
				}
				lastDone = ev.Done
			}
		}
		if lastDone != tickers*ticks {
			t.Errorf("%s: last progress done=%d, want %d", where, lastDone, tickers*ticks)
		}
	}
	check("stream", events)
	if snap, _ := m.Get(id); snap.Done != tickers*ticks {
		t.Errorf("job done=%d, want %d", snap.Done, tickers*ticks)
	}
	ctx, cancelDrain := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelDrain()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var logged []Event
	for _, line := range journal.Lines(data)[1:] {
		var rec logRecord
		if err := json.Unmarshal(line.Payload, &rec); err != nil {
			t.Fatal(err)
		}
		logged = append(logged, Event{Seq: rec.Seq, Ev: rec.Ev, Done: rec.Done})
	}
	check("job log", logged)
}
