package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbs/internal/core"
	"cbs/internal/sweep"
)

// fakeBackend is a controllable physics stand-in: solve counts calls and
// can be gated; sweeps run the real sweep engine over the fake solve, so
// journaling, resume, and progress behave exactly as in production.
type fakeBackend struct {
	calls       atomic.Int64         // underlying solve executions
	gate        chan struct{}        // when non-nil, solve blocks until closed
	perGate     func(e float64) bool // which energies block (nil: all, when gate set)
	saturateNrh int                  // when non-zero, solves at this Nrh saturate the rank
}

func (f *fakeBackend) solve(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
	f.calls.Add(1)
	if f.gate != nil && (f.perGate == nil || f.perGate(e)) {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	rank := 2
	if opts.Nrh == f.saturateNrh {
		rank = opts.Nrh * opts.Nmm
	}
	return &core.Result{
		Energy:   e,
		Rank:     rank,
		Expanded: opts.Nrh,
		Pairs: []core.Eigenpair{
			{Lambda: complex(0.8, 0.1), K: complex(0.3, 0.05), Residual: 1e-11,
				Psi: []complex128{complex(1, 0), complex(0, 1)}},
		},
	}, nil
}

// newTestServer stands a server on the fake backend.
func newTestServer(t *testing.T, fb *fakeBackend, mut func(*serverConfig)) (*server, *httptest.Server) {
	t.Helper()
	cfg := serverConfig{
		backend: backend{
			desc:  "fake|grid=2x2x2|N=8|a=1",
			ef:    0.1,
			a:     7.5,
			solve: fb.solve,
		},
		workers:      4,
		queueDepth:   32,
		cacheEntries: 64,
		sweepWorkers: 1,
		defaults:     core.DefaultOptions(),
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // test teardown
	})
	return s, ts
}

// postJSON posts body and decodes the response into out (if non-nil).
func postJSON(t *testing.T, url, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %q: %v", buf.String(), err)
		}
	}
	return resp
}

// getJob fetches a job snapshot.
func getJob(t *testing.T, base, id string) jobJSON {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: HTTP %d", id, resp.StatusCode)
	}
	var out jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitJob polls until the job is terminal.
func waitJob(t *testing.T, base, id string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j := getJob(t, base, id)
		switch j.State {
		case "done", "failed", "canceled":
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobJSON{}
}

// TestConcurrentIdenticalSolvesSingleflight is acceptance criterion 1:
// identical simultaneous requests collapse to exactly one underlying
// solve, observed through the full HTTP stack.
func TestConcurrentIdenticalSolvesSingleflight(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})}
	_, ts := newTestServer(t, fb, nil)

	const n = 12
	body := `{"energy_ev": 0.25, "options": {"nint": 8, "nrh": 4}}`
	ids := make([]string, n)
	var fp string
	for i := 0; i < n; i++ {
		var sub submitResponse
		resp := postJSON(t, ts.URL+"/v1/solve", body, &sub)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %d: HTTP %d", i, resp.StatusCode)
		}
		if fp == "" {
			fp = sub.Fingerprint
		} else if sub.Fingerprint != fp {
			t.Fatalf("identical requests got different fingerprints %s vs %s", fp, sub.Fingerprint)
		}
		ids[i] = sub.ID
	}
	// All 12 jobs are in the system against one gated solve; release it.
	time.Sleep(20 * time.Millisecond)
	close(fb.gate)

	for _, id := range ids {
		j := waitJob(t, ts.URL, id)
		if j.State != "done" {
			t.Fatalf("job %s ended %s: %s", id, j.State, j.Error)
		}
		if j.Result == nil || j.Result.Energy == 0 {
			t.Fatalf("job %s missing result", id)
		}
		if len(j.Result.Pairs) != 1 || j.Result.Pairs[0].Psi != nil {
			t.Fatalf("job %s: vectors must be stripped by default: %+v", id, j.Result.Pairs)
		}
	}
	if got := fb.calls.Load(); got != 1 {
		t.Fatalf("%d identical concurrent requests executed %d solves, want exactly 1", n, got)
	}
}

// TestCacheHitSkipsSolver is acceptance criterion 2: a repeat request
// after completion is served from the cache — the hit counter increments
// and the solver call counter does not.
func TestCacheHitSkipsSolver(t *testing.T) {
	fb := &fakeBackend{}
	s, ts := newTestServer(t, fb, nil)

	body := `{"energy_ev": -0.5}`
	var first submitResponse
	postJSON(t, ts.URL+"/v1/solve", body, &first)
	j1 := waitJob(t, ts.URL, first.ID)
	if j1.State != "done" || j1.CacheOutcome != "miss" {
		t.Fatalf("first request: state %s cache %s, want done/miss", j1.State, j1.CacheOutcome)
	}
	callsAfterFirst := fb.calls.Load()

	var second submitResponse
	postJSON(t, ts.URL+"/v1/solve", body, &second)
	j2 := waitJob(t, ts.URL, second.ID)
	if j2.State != "done" || j2.CacheOutcome != "hit" {
		t.Fatalf("second request: state %s cache %s, want done/hit", j2.State, j2.CacheOutcome)
	}
	if fb.calls.Load() != callsAfterFirst {
		t.Fatalf("cache hit executed a solve (%d -> %d calls)", callsAfterFirst, fb.calls.Load())
	}
	cs := s.cache.Stats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("cache stats %+v, want 1 hit 1 miss", cs)
	}

	// A request with different options is a different fingerprint: miss.
	var third submitResponse
	postJSON(t, ts.URL+"/v1/solve", `{"energy_ev": -0.5, "options": {"nint": 64}}`, &third)
	if third.Fingerprint == first.Fingerprint {
		t.Fatal("option change did not change the fingerprint")
	}
	j3 := waitJob(t, ts.URL, third.ID)
	if j3.CacheOutcome != "miss" {
		t.Errorf("different options served cache %s, want miss", j3.CacheOutcome)
	}

	// /metrics (expvar) reflects the counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Cbsd struct {
			Cache struct {
				Hits   int64 `json:"hits"`
				Misses int64 `json:"misses"`
			} `json:"cache"`
			Solve struct {
				Count int64 `json:"count"`
			} `json:"solve"`
		} `json:"cbsd"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Cbsd.Cache.Hits != 1 || vars.Cbsd.Cache.Misses != 2 {
		t.Errorf("/metrics cache = %+v, want 1 hit 2 misses", vars.Cbsd.Cache)
	}
	if vars.Cbsd.Solve.Count != fb.calls.Load() {
		t.Errorf("/metrics solve count %d, backend saw %d", vars.Cbsd.Solve.Count, fb.calls.Load())
	}
}

// TestQueueOverflowReturns429 is acceptance criterion 3: a full queue
// rejects with HTTP 429 and Retry-After instead of blocking.
func TestQueueOverflowReturns429(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})}
	defer close(fb.gate)
	_, ts := newTestServer(t, fb, func(cfg *serverConfig) {
		cfg.workers = 1
		cfg.queueDepth = 1
	})

	// Distinct energies so each request is a distinct job and key.
	accepted := 0
	var rejected *http.Response
	for i := 0; i < 8; i++ {
		body := fmt.Sprintf(`{"energy_ev": %g}`, 0.1*float64(i+1))
		var errResp errorResponse
		resp := postJSON(t, ts.URL+"/v1/solve", body, &errResp)
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			if rejected == nil {
				rejected = resp
				if !strings.Contains(errResp.Error, "queue full") {
					t.Errorf("429 body %q does not name the typed rejection", errResp.Error)
				}
			}
		default:
			t.Fatalf("request %d: unexpected HTTP %d", i, resp.StatusCode)
		}
	}
	if rejected == nil {
		t.Fatal("8 requests against workers=1 queue=1 never drew a 429")
	}
	if ra := rejected.Header.Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After header")
	}
	// 1 running + 1 queued is the system's capacity.
	if accepted > 2 {
		t.Errorf("%d accepted, want at most 2 (workers=1 + queue=1)", accepted)
	}
}

// TestSweepDrainLeavesResumableJournal is acceptance criterion 4: SIGTERM
// (server drain) during an in-flight sweep leaves a checkpoint journal
// that a restarted server resumes from without re-solving.
func TestSweepDrainLeavesResumableJournal(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	fb := &fakeBackend{gate: gate, perGate: func(e float64) bool {
		// Energies arrive as ef + eV2hartree(ev); block from the third on.
		return e > 0.1 // ev >= ~0.3
	}}
	_, ts := newTestServer(t, fb, func(cfg *serverConfig) {
		cfg.checkpointDir = dir
	})

	body := `{"energies_ev": [-0.2, -0.1, 0.3, 0.4, 0.5], "options": {"nint": 8}}`
	var sub submitResponse
	resp := postJSON(t, ts.URL+"/v1/sweep", body, &sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST sweep: HTTP %d", resp.StatusCode)
	}
	// Wait until the two unblocked energies are journaled (progress 2/5).
	deadline := time.Now().Add(10 * time.Second)
	for {
		j := getJob(t, ts.URL, sub.ID)
		if j.Progress != nil && j.Progress.Done >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never completed its first two energies")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// SIGTERM: drain with an already-expired grace — in-flight work is
	// context-canceled and the sweep checkpoints what it finished.
	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	srv := activeServer.Load()
	srv.Drain(dctx) //nolint:errcheck // forced cancellation is the point
	j := getJob(t, ts.URL, sub.ID)
	if j.State != "canceled" {
		t.Fatalf("drained sweep ended %s, want canceled", j.State)
	}

	journal := filepath.Join(dir, sub.Fingerprint+".journal")
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("no journal at %s after drain: %v", journal, err)
	}
	recs, err := sweep.Load(journal, sub.Fingerprint)
	if err != nil {
		t.Fatalf("journal unreadable: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("journal holds %d records, want the 2 completed energies", len(recs))
	}

	// "Restart": a fresh server on the same checkpoint dir; the identical
	// sweep resumes — restored energies are not re-solved.
	fb2 := &fakeBackend{}
	_, ts2 := newTestServer(t, fb2, func(cfg *serverConfig) {
		cfg.checkpointDir = dir
	})
	var sub2 submitResponse
	postJSON(t, ts2.URL+"/v1/sweep", body, &sub2)
	if sub2.Fingerprint != sub.Fingerprint {
		t.Fatalf("resubmitted sweep fingerprint %s != %s", sub2.Fingerprint, sub.Fingerprint)
	}
	j2 := waitJob(t, ts2.URL, sub2.ID)
	if j2.State != "done" || j2.Sweep == nil {
		t.Fatalf("resumed sweep: %+v", j2)
	}
	if j2.Sweep.Restored != 2 || j2.Sweep.OK != 5 {
		t.Fatalf("resumed sweep restored=%d ok=%d, want 2 restored of 5 ok", j2.Sweep.Restored, j2.Sweep.OK)
	}
	if got := fb2.calls.Load(); got != 3 {
		t.Fatalf("resume executed %d solves, want 3 (2 restored from journal)", got)
	}
	restored := 0
	for _, e := range j2.Sweep.Energies {
		if e.Restored {
			restored++
		}
	}
	if restored != 2 {
		t.Errorf("per-energy rows show %d restored, want 2", restored)
	}
}

// TestJobsSplitTheShare: the job pool splits the host's cores among
// its workers, so at GOMAXPROCS 4 every solve — a solve job's or a sweep
// job's — runs on a share of 4/workers, and its derived Mid follows.
func TestJobsSplitTheShare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct{ workers, share int }{{2, 2}, {4, 1}} {
		fb := &fakeBackend{}
		var mu sync.Mutex
		shares := map[int]int{}
		_, ts := newTestServer(t, fb, func(c *serverConfig) {
			c.workers = tc.workers
			c.backend.solve = func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
				mu.Lock()
				shares[opts.Parallel.Cores()]++
				mu.Unlock()
				return fb.solve(ctx, e, opts)
			}
		})
		var solve, sweep submitResponse
		postJSON(t, ts.URL+"/v1/solve", `{"energy_ev": 0.3}`, &solve)
		postJSON(t, ts.URL+"/v1/sweep", `{"energies_ev": [0.1, 0.2]}`, &sweep)
		for _, id := range []string{solve.ID, sweep.ID} {
			if j := waitJob(t, ts.URL, id); j.State != "done" {
				t.Fatalf("workers %d: job %s %s", tc.workers, id, j.State)
			}
		}
		mu.Lock()
		if len(shares) != 1 || shares[tc.share] != 3 {
			t.Errorf("workers %d: solves by share %v, want all 3 at share %d", tc.workers, shares, tc.share)
		}
		mu.Unlock()
	}
}

// TestSweepWarmsTheSolveCache: a completed sweep energy serves a later
// identical single-energy solve from the cache.
func TestSweepWarmsTheSolveCache(t *testing.T) {
	fb := &fakeBackend{}
	_, ts := newTestServer(t, fb, nil)
	var sub submitResponse
	postJSON(t, ts.URL+"/v1/sweep", `{"energies_ev": [0.1, 0.2], "options": {"nrh": 4}}`, &sub)
	if waitJob(t, ts.URL, sub.ID).State != "done" {
		t.Fatal("sweep failed")
	}
	callsAfterSweep := fb.calls.Load()

	var solveSub submitResponse
	postJSON(t, ts.URL+"/v1/solve", `{"energy_ev": 0.2, "options": {"nrh": 4}}`, &solveSub)
	j := waitJob(t, ts.URL, solveSub.ID)
	if j.State != "done" || j.CacheOutcome != "hit" {
		t.Fatalf("solve after sweep: state %s cache %s, want done/hit", j.State, j.CacheOutcome)
	}
	if fb.calls.Load() != callsAfterSweep {
		t.Fatal("solve after sweep re-executed the solver")
	}
}

// TestEscalatedSweepEnergyNotCached: a sweep energy the ladder escalated
// (nrh 16->32 on a saturated rank) was computed with other options than
// the request's, so it must not warm the cache under the request's key: a
// later /v1/solve at that energy misses and computes at the base Nrh.
func TestEscalatedSweepEnergyNotCached(t *testing.T) {
	fb := &fakeBackend{saturateNrh: 16}
	_, ts := newTestServer(t, fb, nil)
	var sub submitResponse
	postJSON(t, ts.URL+"/v1/sweep", `{"energies_ev": [0.2], "options": {"nrh": 16}}`, &sub)
	j := waitJob(t, ts.URL, sub.ID)
	if j.State != "done" || j.Sweep == nil || len(j.Sweep.Energies) != 1 ||
		len(j.Sweep.Energies[0].Escalations) == 0 {
		t.Fatalf("sweep did not escalate: %+v", j)
	}
	callsAfterSweep := fb.calls.Load()

	var solveSub submitResponse
	postJSON(t, ts.URL+"/v1/solve", `{"energy_ev": 0.2, "options": {"nrh": 16}}`, &solveSub)
	js := waitJob(t, ts.URL, solveSub.ID)
	if js.State != "done" || js.CacheOutcome != "miss" {
		t.Fatalf("solve after escalated sweep: state %s cache %s, want done/miss", js.State, js.CacheOutcome)
	}
	if js.Result == nil || js.Result.Expanded != 16 {
		t.Errorf("solve answered with a result computed at Nrh %v, want the request's 16", js.Result)
	}
	if fb.calls.Load() != callsAfterSweep+1 {
		t.Errorf("solve after escalated sweep ran %d solves, want 1", fb.calls.Load()-callsAfterSweep)
	}
}

// TestJobEndpoints covers the small surface: 404s, cancel, healthz, and
// malformed requests.
func TestJobEndpoints(t *testing.T) {
	fb := &fakeBackend{gate: make(chan struct{})}
	defer close(fb.gate)
	s, ts := newTestServer(t, fb, nil)

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d, want 200", hresp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
	}

	for _, bad := range []string{`{`, `{}`, `{"options": {"nint": 8}}`} {
		resp := postJSON(t, ts.URL+"/v1/solve", bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}

	// Cancel a running job via DELETE.
	var sub submitResponse
	postJSON(t, ts.URL+"/v1/solve", `{"energy_ev": 0.9}`, &sub)
	waitRunning := time.Now().Add(5 * time.Second)
	for getJob(t, ts.URL, sub.ID).State == "queued" && time.Now().Before(waitRunning) {
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Errorf("DELETE job: HTTP %d, want 202", dresp.StatusCode)
	}
	j := waitJob(t, ts.URL, sub.ID)
	if j.State != "canceled" {
		t.Errorf("canceled job ended %s", j.State)
	}

	// Draining flips healthz to 503 and submissions to 503.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	s.Drain(ctx) //nolint:errcheck
	hresp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp2.Body.Close()
	if hresp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: HTTP %d, want 503", hresp2.StatusCode)
	}
	sresp := postJSON(t, ts.URL+"/v1/solve", `{"energy_ev": 1.1}`, nil)
	if sresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", sresp.StatusCode)
	}
}

// TestConcurrentMixedTraffic hammers the server with a mix of identical
// and distinct requests under -race: the invariant is one solve per
// distinct fingerprint.
func TestConcurrentMixedTraffic(t *testing.T) {
	fb := &fakeBackend{}
	_, ts := newTestServer(t, fb, func(cfg *serverConfig) {
		cfg.workers = 8
		cfg.queueDepth = 128
	})
	const clients, distinct = 24, 4
	var wg sync.WaitGroup
	ids := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"energy_ev": %g}`, 0.1*float64(i%distinct))
			var sub submitResponse
			resp := postJSON(t, ts.URL+"/v1/solve", body, &sub)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("client %d: HTTP %d", i, resp.StatusCode)
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id == "" {
			continue
		}
		if j := waitJob(t, ts.URL, id); j.State != "done" {
			t.Errorf("job %s: %s (%s)", id, j.State, j.Error)
		}
	}
	if got := fb.calls.Load(); got != distinct {
		t.Errorf("%d clients over %d fingerprints executed %d solves, want %d", clients, distinct, got, distinct)
	}
}
