package main

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cbs/internal/jobs"
	"cbs/internal/sweep"
)

// TestKillRestartAcceptance is the crash-safety acceptance run: a server
// with a checkpoint directory is killed abruptly (no drain, no journal
// flushes — the in-process SIGKILL model) with a mix of finished,
// running, and queued jobs. A successor on the same directory must:
//
//   - resolve every pre-crash job ID: finished jobs come back as restored
//     terminal snapshots, unfinished ones are re-adopted and run to done
//     (resuming sweeps from their checkpoint journals, not re-solving);
//   - leave no orphaned sweep journals — every <fp>.journal in the
//     checkpoint dir belongs to a job in the job log;
//   - continue every job's SSE stream gaplessly: a client that reconnects
//     with its pre-crash Last-Event-ID sees the remaining events with
//     contiguous ids through the terminal one.
func TestKillRestartAcceptance(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	fb := &fakeBackend{gate: gate, perGate: func(e float64) bool {
		return e > 0.1 // ev >= ~0.3: the sweep blocks from its third energy on
	}}
	s1, ts1 := newTestServer(t, fb, func(cfg *serverConfig) {
		cfg.workers = 1
		cfg.checkpointDir = dir
	})

	// Job 1 finishes before the crash.
	var doneSub submitResponse
	postJSON(t, ts1.URL+"/v1/solve", `{"energy_ev": -0.5}`, &doneSub)
	if j := waitJob(t, ts1.URL, doneSub.ID); j.State != "done" {
		t.Fatalf("pre-crash solve ended %s", j.State)
	}

	// Job 2 is a sweep caught mid-flight: two energies journaled, the
	// third blocked on the gate when the server dies.
	var sweepSub submitResponse
	postJSON(t, ts1.URL+"/v1/sweep",
		`{"energies_ev": [-0.2, -0.1, 0.3, 0.4, 0.5], "options": {"nint": 8}}`, &sweepSub)
	deadline := time.Now().Add(10 * time.Second)
	for {
		j := getJob(t, ts1.URL, sweepSub.ID)
		if j.Progress != nil && j.Progress.Done >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never journaled its first two energies")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// An SSE client is mid-stream when the server dies: remember where it
	// got to.
	c := openSSE(t, ts1.URL, sweepSub.ID, "")
	var lastSeen int64
	for lastSeen == 0 {
		ev, ok := c.next(t)
		if !ok {
			t.Fatal("SSE stream ended before the crash")
		}
		if ev.Data.Ev == "progress" && ev.Data.Done >= 2 {
			lastSeen = ev.ID
		}
	}
	c.close()

	// Jobs 3 and 4 are still queued behind the single worker.
	var queuedSweep, queuedSolve submitResponse
	postJSON(t, ts1.URL+"/v1/sweep", `{"energies_ev": [-0.3, -0.25]}`, &queuedSweep)
	postJSON(t, ts1.URL+"/v1/solve", `{"energy_ev": -0.4}`, &queuedSolve)

	// Job 5 is queued with a spec as a pre-removal server journaled it: its
	// option overlay still asks for the retired mixed-precision solve.
	legacyID, err := s1.mgr.Submit(jobs.Submission{
		Kind:        jobs.KindSolve,
		Fingerprint: "0123456789abcdef",
		Spec:        []byte(`{"type":"solve","energy_hartree":-0.3,"options":{"precision":"mixed"}}`),
		Task: func(context.Context, func(int, int)) (jobs.Outcome, error) {
			return jobs.Outcome{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	s1.mgr.Kill() // SIGKILL: no drain, no terminal records, contexts die
	ts1.Close()

	// Successor on the same checkpoint dir, physics unblocked.
	fb2 := &fakeBackend{}
	s2, ts2 := newTestServer(t, fb2, func(cfg *serverConfig) {
		cfg.checkpointDir = dir
	})

	// The legacy spec is not re-run at full precision under the journaled
	// mixed fingerprint: it fails typed, naming the retired option.
	legacy, err := s2.mgr.Get(legacyID)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.State != jobs.StateFailed || !errors.Is(legacy.Err, jobs.ErrLostToRestart) ||
		!strings.Contains(legacy.Err.Error(), "precision") {
		t.Errorf("job with a retired option re-adopted as %s / %v, want failed / ErrLostToRestart naming precision",
			legacy.State, legacy.Err)
	}

	// Every pre-crash ID resolves; unfinished jobs run to done.
	finished := getJob(t, ts2.URL, doneSub.ID)
	if finished.State != "done" || !finished.Restored {
		t.Errorf("finished pre-crash job replayed as %s restored=%v, want done restored snapshot",
			finished.State, finished.Restored)
	}
	for _, id := range []string{sweepSub.ID, queuedSweep.ID, queuedSolve.ID} {
		if j := waitJob(t, ts2.URL, id); j.State != "done" {
			t.Fatalf("re-adopted job %s ended %s (%s)", id, j.State, j.Error)
		}
	}

	// The interrupted sweep resumed from its journal: the two pre-crash
	// energies were restored, not re-solved.
	j := getJob(t, ts2.URL, sweepSub.ID)
	if j.Sweep == nil || j.Sweep.Restored != 2 || j.Sweep.OK != 5 {
		t.Fatalf("resumed sweep report %+v, want restored=2 ok=5", j.Sweep)
	}
	// Successor solves: 3 sweep energies + 2 queued-sweep energies + 1
	// queued solve; the finished job was never re-run.
	if got := fb2.calls.Load(); got != 6 {
		t.Errorf("successor executed %d solves, want 6 (journaled energies restored, finished job untouched)", got)
	}

	// No orphaned sweep journals: every journal's fingerprint belongs to a
	// job the log knows.
	known := map[string]bool{sweepSub.Fingerprint: true, queuedSweep.Fingerprint: true}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	journals := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".journal") {
			continue
		}
		journals++
		fp := strings.TrimSuffix(e.Name(), ".journal")
		if !known[fp] {
			t.Errorf("orphaned sweep journal %s: no job in the log references it", e.Name())
		}
	}
	if journals == 0 {
		t.Error("no sweep journals survived the crash")
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs.log")); err != nil {
		t.Fatalf("job log missing after restart: %v", err)
	}

	// SSE reconnect: resuming from the pre-crash Last-Event-ID replays the
	// rest of the stream — re-adoption, re-run, terminal — with contiguous
	// ids and no duplicates.
	c2 := openSSE(t, ts2.URL, sweepSub.ID, strconv.FormatInt(lastSeen, 10))
	defer c2.close()
	prev := lastSeen
	sawRequeue, sawFinal := false, false
	for {
		ev, ok := c2.next(t)
		if !ok {
			break
		}
		if ev.ID != prev+1 {
			t.Fatalf("SSE gap across restart: %d -> %d", prev, ev.ID)
		}
		prev = ev.ID
		if ev.Data.Ev == "state" && ev.Data.State == "queued" {
			sawRequeue = true
		}
		if ev.Data.Final {
			sawFinal = true
			if ev.Data.State != "done" {
				t.Errorf("stream ends %s, want done", ev.Data.State)
			}
		}
	}
	if !sawRequeue || !sawFinal {
		t.Errorf("reconnected stream missed re-adoption (%v) or terminal (%v) events", sawRequeue, sawFinal)
	}

	// The successor accepts new work and numbers past the replayed IDs.
	var newSub submitResponse
	postJSON(t, ts2.URL+"/v1/solve", `{"energy_ev": 0.7}`, &newSub)
	if newSub.ID <= queuedSolve.ID {
		t.Errorf("post-restart ID %s does not advance past pre-crash %s", newSub.ID, queuedSolve.ID)
	}
	if waitJob(t, ts2.URL, newSub.ID).State != "done" {
		t.Error("post-restart submission failed")
	}

	// A graceful drain of the successor leaves a log a third generation
	// replays without re-adopting anything live.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := activeServer.Load().Drain(ctx); err != nil {
		t.Fatalf("successor drain: %v", err)
	}
	resp, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("drained successor healthz: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestReadoptionRefusesDriftedFingerprint: a successor whose defaults
// changed (here Nint) re-plans every journaled spec to another
// fingerprint. Running the queued jobs anyway would serve different
// physics under their old IDs — and a sweep re-adopted before its journal
// exists would write the new fingerprint into <dir>/<old fp>.journal — so
// each one fails typed: ErrLostToRestart wrapping ErrFingerprintMismatch.
func TestReadoptionRefusesDriftedFingerprint(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	fb := &fakeBackend{gate: gate, perGate: func(e float64) bool { return e < 0 }}
	s1, ts1 := newTestServer(t, fb, func(cfg *serverConfig) {
		cfg.workers = 1
		cfg.checkpointDir = dir
	})

	// The one worker blocks on a gated solve; a solve and a sweep queue
	// behind it.
	var blocker, queuedSolve, queuedSweep submitResponse
	postJSON(t, ts1.URL+"/v1/solve", `{"energy_ev": -5}`, &blocker)
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts1.URL, blocker.ID).State != "running" {
		if time.Now().After(deadline) {
			t.Fatal("gated solve never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	postJSON(t, ts1.URL+"/v1/solve", `{"energy_ev": 0.4}`, &queuedSolve)
	postJSON(t, ts1.URL+"/v1/sweep", `{"energies_ev": [0.3, 0.5]}`, &queuedSweep)

	s1.mgr.Kill()
	ts1.Close()

	fb2 := &fakeBackend{}
	s2, _ := newTestServer(t, fb2, func(cfg *serverConfig) {
		cfg.checkpointDir = dir
		cfg.defaults.Nint *= 2
	})
	for _, id := range []string{queuedSolve.ID, queuedSweep.ID} {
		snap, err := s2.mgr.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != jobs.StateFailed || !errors.Is(snap.Err, jobs.ErrLostToRestart) ||
			!errors.Is(snap.Err, sweep.ErrFingerprintMismatch) {
			t.Errorf("job %s re-adopted under drifted defaults as %s / %v, want failed / ErrLostToRestart wrapping ErrFingerprintMismatch",
				id, snap.State, snap.Err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, queuedSweep.Fingerprint+".journal")); !os.IsNotExist(err) {
		t.Errorf("refused sweep left a journal under its old fingerprint (stat: %v)", err)
	}
	if n := fb2.calls.Load(); n != 0 {
		t.Errorf("successor ran %d solves for refused jobs", n)
	}
}
