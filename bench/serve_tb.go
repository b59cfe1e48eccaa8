package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cbs"
	"cbs/internal/units"
)

// cbsdProc is one running cbsd started by the benchmark.
type cbsdProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	ready  time.Duration
	exited chan struct{} // closed once the process has been waited for
}

// freePort asks the kernel for an unused loopback port. cbsd takes its
// address as a flag and does not report a bound ":0", so the port is chosen
// here; startCbsd retries on the rare race with another process.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startCbsd execs cbsd on the slab with a fresh checkpoint directory (an old
// one would replay its job log and resume its sweep journals) and waits for
// /healthz to answer 200; ready is the time from exec to that answer.
func startCbsd(ctx context.Context, cfg runConfig) (*cbsdProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		dir, err := os.MkdirTemp(cfg.workdir, "ckpt-")
		if err != nil {
			return nil, err
		}
		var stderr bytes.Buffer
		cmd := exec.Command(cfg.cbsd,
			"-addr", addr, "-system", "tb-slab",
			"-tb-nx", strconv.Itoa(slabConfig.Nx), "-tb-ny", strconv.Itoa(slabConfig.Ny),
			"-workers", "2", "-queue-depth", "16", "-cache-entries", "256",
			"-checkpoint-dir", dir, "-drain-grace", "2s")
		cmd.Stderr = &stderr
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting %s: %w", cfg.cbsd, err)
		}
		p := &cbsdProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
		go func() {
			cmd.Wait() //nolint:errcheck // a terminated server's exit status says nothing
			close(p.exited)
		}()
		for {
			resp, err := http.Get(p.base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse only
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					p.ready = time.Since(t0)
					return p, nil
				}
			}
			select {
			case <-p.exited:
				lastErr = fmt.Errorf("cbsd exited before serving: %s", strings.TrimSpace(stderr.String()))
			case <-ctx.Done():
				p.stop()
				return nil, ctx.Err()
			case <-time.After(2 * time.Millisecond):
				if time.Since(t0) < 20*time.Second {
					continue
				}
				p.stop()
				lastErr = errors.New("cbsd did not answer /healthz within 20 s")
			}
			break
		}
	}
	return nil, lastErr
}

// stop terminates cbsd and waits until it has exited: SIGTERM first (cbsd
// drains and flushes its journals), SIGKILL if it lingers. Stopping twice is
// harmless.
func (p *cbsdProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // already exited is fine
		<-p.exited
	}
}

// peakRSSMB reads the process's VmHWM (Linux; 0 elsewhere).
func (p *cbsdProc) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1e3
		}
	}
	return 0
}

// serverMetrics is the part of cbsd's /metrics the benchmark reads.
type serverMetrics struct {
	Cache struct {
		Hits, Misses, Deduped int64
	} `json:"cache"`
	Jobs struct {
		Rejected  int64 `json:"rejected"`
		LogErrors int64 `json:"log_errors"`
	} `json:"jobs"`
	Solve struct {
		Count   int64   `json:"count"`
		TotalMS float64 `json:"total_ms"`
	} `json:"solve"`
}

func scrapeMetrics(base string) (serverMetrics, error) {
	var doc struct {
		Cbsd serverMetrics `json:"cbsd"`
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return doc.Cbsd, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&doc)
	return doc.Cbsd, err
}

// resultView is the eigenvalue list of one solved energy in a job body.
type resultView struct {
	Pairs []struct {
		Lambda [2]float64 `json:"lambda"`
	} `json:"pairs"`
}

// propagating counts eigenvalues on the unit circle.
func (r *resultView) propagating() int {
	n := 0
	for _, p := range r.Pairs {
		if math.Abs(math.Hypot(p.Lambda[0], p.Lambda[1])-1) <= quantTol {
			n++
		}
	}
	return n
}

// jobView is what the benchmark reads of GET /v1/jobs/{id}.
type jobView struct {
	State        string      `json:"state"`
	Submitted    string      `json:"submitted"`
	Started      string      `json:"started"`
	Finished     string      `json:"finished"`
	CacheOutcome string      `json:"cache_outcome"`
	Error        string      `json:"error"`
	Result       *resultView `json:"result"`
	Sweep        *struct {
		Energies []struct {
			Status string      `json:"status"`
			Result *resultView `json:"result"`
		} `json:"energies"`
	} `json:"sweep"`
	Transport *struct {
		Points []struct {
			T      float64 `json:"t"`
			Status string  `json:"status"`
		} `json:"points"`
	} `json:"transport"`
}

// jobTiming is one job as its client saw it, all in milliseconds.
type jobTiming struct {
	req       request
	outcome   string // cache_outcome of a solve
	latency   float64
	submit    float64 // POST round trip
	notify    float64 // terminal SSE event received - finished
	fetch     float64
	resultKB  float64
	queueWait float64 // started - submitted
	run       float64 // finished - started
}

// client is one closed-loop caller: it sends its next request only after
// the previous job's result body has been read.
type client struct {
	name string
	base string
	http *http.Client
	o    *outcome
	span int
}

func (c *client) post(path string, body any) (string, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	req.Header.Set("X-CBS-Client", c.name)
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(raw)))
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		return "", err
	}
	return ack.ID, nil
}

// awaitFinal follows the job's SSE stream to its terminal event.
func (c *client) awaitFinal(id string) error {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	final := false
	for sc.Scan() { // to EOF, which follows the terminal event, so the connection is reused
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Final bool `json:"final"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return err
		}
		final = final || ev.Final
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !final {
		return errors.New("event stream ended before the terminal event")
	}
	return nil
}

// do runs one request to completion: POST, the SSE stream to the terminal
// event, then the job body.
func (c *client) do(r request) (jobTiming, *jobView, error) {
	opts := map[string]int{"nrh": 8, "nmm": 7}
	var path string
	var body any
	if r.Kind == kindSolve {
		path, body = "/v1/solve", map[string]any{"energy_hartree": r.Energies[0], "options": opts}
	} else {
		// The slab's Fermi level is its band centre, 0: eV relative to EF.
		evs := make([]float64, len(r.Energies))
		for i, e := range r.Energies {
			evs[i] = units.HartreeToEV(e)
		}
		req := map[string]any{"energies_ev": evs, "options": opts}
		if r.Kind == kindTransport {
			req["cells"] = deviceCells
		}
		path, body = "/v1/"+r.Kind, req
	}
	jt := jobTiming{req: r}
	sub := c.o.rec.begin("cbsd.submit", c.span)
	t0 := time.Now()
	id, err := c.post(path, body)
	c.o.rec.end(sub)
	if err != nil {
		return jt, nil, err
	}
	t1 := time.Now()
	wait := c.o.rec.begin("cbsd.wait", c.span)
	err = c.awaitFinal(id)
	c.o.rec.end(wait)
	if err != nil {
		return jt, nil, err
	}
	t2 := time.Now()
	fetch := c.o.rec.begin("cbsd.fetch", c.span)
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		c.o.rec.end(fetch)
		return jt, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.o.rec.end(fetch)
	if err != nil {
		return jt, nil, err
	}
	t3 := time.Now()
	var job jobView
	if err := json.Unmarshal(raw, &job); err != nil {
		return jt, nil, err
	}
	jt.outcome = job.CacheOutcome
	jt.latency = millis(t3.Sub(t0))
	jt.submit = millis(t1.Sub(t0))
	jt.fetch = millis(t3.Sub(t2))
	jt.resultKB = float64(len(raw)) / 1e3
	submitted, err1 := time.Parse(time.RFC3339Nano, job.Submitted)
	started, err2 := time.Parse(time.RFC3339Nano, job.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, job.Finished)
	if err := errors.Join(err1, err2, err3); err != nil {
		return jt, &job, fmt.Errorf("job %s timestamps: %w", id, err)
	}
	jt.queueWait = millis(started.Sub(submitted))
	jt.run = millis(finished.Sub(started))
	jt.notify = millis(t2.Sub(finished))
	return jt, &job, nil
}

// checkJob gates one finished job against the analytic slab: a solve (or
// each energy of a sweep or bands job) must return two propagating states
// per open channel, a transport job T(E) equal to the channel count, and a
// solve's cache_outcome must be what its request list predicted. It returns
// the largest transmission deviation seen.
func checkJob(r request, job *jobView) (float64, error) {
	if job.State != "done" {
		return 0, fmt.Errorf("%s job ended %s: %s", r.Kind, job.State, job.Error)
	}
	switch r.Kind {
	case kindSolve:
		want := "miss"
		if r.Repeat {
			want = "hit"
		}
		if job.CacheOutcome != want {
			return 0, fmt.Errorf("solve at E=%g: cache_outcome %q, request list predicts %q", r.Energies[0], job.CacheOutcome, want)
		}
		if job.Result == nil {
			return 0, errors.New("solve job has no result")
		}
		if got, want := job.Result.propagating(), 2*openChannels(r.Energies[0]); got != want {
			return 0, fmt.Errorf("solve at E=%g: %d propagating states, analytic %d", r.Energies[0], got, want)
		}
	case kindSweep, kindBands:
		if job.Sweep == nil || len(job.Sweep.Energies) != len(r.Energies) {
			return 0, fmt.Errorf("%s job reports the wrong number of energies", r.Kind)
		}
		for i, e := range job.Sweep.Energies {
			if e.Status != "ok" || e.Result == nil {
				return 0, fmt.Errorf("%s energy %d ended %s", r.Kind, i, e.Status)
			}
			if got, want := e.Result.propagating(), 2*openChannels(r.Energies[i]); got != want {
				return 0, fmt.Errorf("%s at E=%g: %d propagating states, analytic %d", r.Kind, r.Energies[i], got, want)
			}
		}
	case kindTransport:
		if job.Transport == nil || len(job.Transport.Points) != len(r.Energies) {
			return 0, errors.New("transport job reports the wrong number of points")
		}
		dev := 0.0
		for i, p := range job.Transport.Points { // energy order, as requested
			d := math.Abs(p.T - float64(openChannels(r.Energies[i])))
			dev = math.Max(dev, d)
			if p.Status != "ok" || d > quantTol {
				return dev, fmt.Errorf("transport at E=%g: status %s, T=%.9g, analytic %d", r.Energies[i], p.Status, p.T, openChannels(r.Energies[i]))
			}
		}
		return dev, nil
	}
	return 0, nil
}

// buildCbsd compiles cmd/cbsd of the enclosing module to cfg.cbsd (a no-op
// up-to-date check when it is current).
func buildCbsd(ctx context.Context, cfg runConfig) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", cfg.cbsd, "cbs/cmd/cbsd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build cbs/cmd/cbsd: %w: %s", err, strings.TrimSpace(string(out)))
	}
	return nil
}

// runServeTB is the serve_tb workload: a real cbsd driven over loopback
// HTTP by closed-loop clients replaying seeded request lists.
func runServeTB(ctx context.Context, cfg runConfig, o *outcome) error {
	clients := loadThreads()
	o.clients, o.workers = clients, 2
	if err := buildCbsd(ctx, cfg); err != nil {
		return err
	}

	// Set-up, several times over: exec to /healthz 200 on a fresh checkpoint
	// directory. The last server stays up for the traffic.
	var ready sample
	var srv *cbsdProc
	for i := 0; i < cfg.reps(5); i++ {
		if srv != nil {
			srv.stop()
		}
		sp := o.rec.begin("cbsd.start", o.root)
		p, err := startCbsd(ctx, cfg)
		o.rec.end(sp)
		if err != nil {
			return err
		}
		srv = p
		ready.add(p.ready.Seconds())
	}
	defer srv.stop()

	budget, _ := cfg.loop(1)
	// More blocks than the clients can drain in the budget: a job takes at
	// least 10 ms even when every solve hits.
	blocks := int(budget*100/reqBlock) + 1
	if cfg.smoke {
		blocks = 1
	}
	lists := requestLists(cfg.seed, clients, blocks)

	// Warm-up outside the pools (above the window), so connections, the job
	// log and the solver's first-use state exist and no prediction changes.
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = &client{name: fmt.Sprintf("bench-%d", i), base: srv.base, http: &http.Client{}, o: o, span: -1}
		for k := 0; k < 3; k++ {
			warm := request{Kind: kindSolve, Energies: []float64{tbEmax + 0.01*float64(1+k+3*i)}}
			if _, _, err := cs[i].do(warm); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	before, err := scrapeMetrics(srv.base)
	if err != nil {
		return err
	}

	// Timed traffic: each client replays its list until the budget is spent.
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex // guards jobs, issued, dev and o's failure counts
		jobs    []jobTiming
		issued  = make([]int, clients)
		dev     float64
		trafSp  = o.rec.begin("serve.traffic", o.root)
		t0      = time.Now()
		maxJobs = math.MaxInt
	)
	if cfg.smoke {
		maxJobs = 30
	}
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			c.span = o.rec.begin("serve.client", trafSp)
			defer o.rec.end(c.span)
			for n, r := range lists[i] {
				if time.Since(t0).Seconds() >= budget || n >= maxJobs || ctx.Err() != nil {
					return
				}
				jt, job, err := c.do(r)
				var d float64
				if err == nil {
					d, err = checkJob(r, job)
				}
				mu.Lock()
				issued[i]++
				o.attempt(1)
				o.check(fmt.Sprintf("client %d request %d", i, n), err)
				if job != nil {
					jobs = append(jobs, jt)
				}
				dev = math.Max(dev, d)
				mu.Unlock()
			}
		}(i, c)
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	o.rec.end(trafSp)
	after, err := scrapeMetrics(srv.base)
	if err != nil {
		return err
	}
	rss := srv.peakRSSMB()

	// The cache counters must move exactly as the issued prefixes predict.
	wantHits, wantMisses := 0, 0
	for i, n := range issued {
		h, m := predictedLookups(lists[i][:n])
		wantHits, wantMisses = wantHits+h, wantMisses+m
	}
	hits, misses := int(after.Cache.Hits-before.Cache.Hits), int(after.Cache.Misses-before.Cache.Misses)
	o.attempt(1)
	if hits != wantHits || misses != wantMisses {
		o.fail("cache lookups: %d hits / %d misses, request lists predict %d / %d", hits, misses, wantHits, wantMisses)
	}

	by := func(keep func(jobTiming) bool, field func(jobTiming) float64) sample {
		var s sample
		for _, j := range jobs {
			if keep(j) {
				s.add(field(j))
			}
		}
		return s
	}
	all := func(jobTiming) bool { return true }
	miss := func(j jobTiming) bool { return j.req.Kind == kindSolve && j.outcome == "miss" }
	hit := func(j jobTiming) bool { return j.req.Kind == kindSolve && j.outcome == "hit" }
	kind := func(k string) func(jobTiming) bool { return func(j jobTiming) bool { return j.req.Kind == k } }
	latency := func(j jobTiming) float64 { return j.latency }
	energies := 0
	for _, j := range jobs {
		energies += len(j.req.Energies)
	}

	o.set("setup_s", ready.median())
	o.setTiming("solve_s", by(miss, func(j jobTiming) float64 { return j.run }).scaledBy(1e-3))
	o.set("energies_per_s", float64(energies)/wall)
	o.set("jobs_per_s", float64(len(jobs))/wall)
	o.setTiming("solve_miss_p50_ms", by(miss, latency))
	o.setTail("solve_miss_p90_ms", by(miss, latency), 0.90)
	o.setTiming("solve_hit_p50_ms", by(hit, latency))

	if !cfg.traced {
		return nil
	}
	o.setTiming("cbsd.ready_ms", ready.scaledBy(1e3))
	o.setTiming("cbsd.submit_ms_p50", by(all, func(j jobTiming) float64 { return j.submit }))
	o.setTiming("jobs.queue_wait_ms_p50", by(all, func(j jobTiming) float64 { return j.queueWait }))
	o.setTiming("jobs.run_ms_p50", by(miss, func(j jobTiming) float64 { return j.run }))
	o.setTiming("cbsd.notify_ms_p50", by(all, func(j jobTiming) float64 { return j.notify }))
	o.setTiming("cbsd.fetch_ms_p50", by(all, func(j jobTiming) float64 { return j.fetch }))
	o.setTiming("cbsd.result_kb_p50", by(all, func(j jobTiming) float64 { return j.resultKB }))
	o.setTiming("cbsd.sweep_job_ms_p50", by(kind(kindSweep), latency))
	o.setTiming("cbsd.bands_job_ms_p50", by(kind(kindBands), latency))
	o.setTiming("cbsd.transport_job_ms_p50", by(kind(kindTransport), latency))
	o.set("cbsd.peak_rss_mb", rss)
	o.set("rescache.hit_ratio", float64(hits)/float64(max(1, hits+misses)))
	o.set("rescache.deduped", float64(after.Cache.Deduped-before.Cache.Deduped))
	o.set("jobs.rejected_429", float64(after.Jobs.Rejected-before.Jobs.Rejected))
	o.set("jobs.log_errors", float64(after.Jobs.LogErrors-before.Jobs.LogErrors))
	o.set("negf.quantization_dev_max", dev)

	// cbsd's own solve timer against the same energies solved in-process,
	// after the server has stopped so nothing else wants the cores.
	solves := after.Solve.Count - before.Solve.Count
	if solves == 0 {
		return nil
	}
	mean := (after.Solve.TotalMS - before.Solve.TotalMS) / float64(solves)
	o.set("cbsd.solve_mean_ms", mean)
	srv.stop()
	model, err := cbs.NewTBSlab(slabConfig)
	if err != nil {
		return err
	}
	var inproc sample
	sp := o.rec.begin("core.SolveContext[in-process]", o.root)
	for _, j := range jobs {
		if miss(j) && len(inproc) < 40 {
			t := time.Now()
			if _, err := model.SolveCBSContext(ctx, j.req.Energies[0], tbOptions()); err != nil {
				return err
			}
			inproc.add(millis(time.Since(t)))
		}
	}
	o.rec.end(sp)
	if len(inproc) > 0 {
		o.set("cbsd.solve_vs_inprocess_ratio", mean/(inproc.sum()/float64(len(inproc))))
	}
	return nil
}
