// server.go is the cbsd HTTP layer, kept separate from main so the tests
// (and the serve-smoke harness) can stand a full server on a fake or real
// backend without flags or signals.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cbs/internal/chaos"
	"cbs/internal/core"
	"cbs/internal/fingerprint"
	"cbs/internal/jobs"
	"cbs/internal/negf"
	"cbs/internal/rescache"
	"cbs/internal/sweep"
	"cbs/internal/units"
)

// backend is what the HTTP layer needs from the physics: the operator's
// identity, the per-energy solve of the public cbs API (sweeps drive it
// through sweep.Run) and the transport pipeline. main wires a real
// cbs.Model; tests wire fakes.
type backend struct {
	// desc is the operator descriptor (cbs.Model.OperatorDesc) that keys
	// every fingerprint this server derives.
	desc string
	// ef is the Fermi level (hartree): request energies arrive in eV
	// relative to it.
	ef float64
	// a is the 1D cell length (bohr), reported alongside results so
	// clients can convert k to units of pi/a.
	a float64
	// solve is cbs.Model.SolveCBSContext (or a test fake).
	solve func(ctx context.Context, e float64, opts core.Options) (*core.Result, error)
	// transport runs the CBS -> NEGF pipeline with the supplied per-energy
	// solve — the server passes a cache-wrapped solve so a repeated
	// transport request (or a later /v1/solve at a shared energy) never
	// recomputes. nil disables POST /v1/transport (404-free: 400 with a
	// typed message).
	transport func(ctx context.Context, solve sweep.SolveFunc, spec negf.Spec, opts core.Options, cfg sweep.Config) (*negf.Curve, error)
}

// serverConfig parameterizes one cbsd instance.
type serverConfig struct {
	backend backend
	// workers / queueDepth bound the job pool (backpressure policy).
	workers    int
	queueDepth int
	// cacheEntries bounds the result cache.
	cacheEntries int
	// sweepWorkers is the per-sweep energy concurrency (below 1: 1).
	sweepWorkers int
	// checkpointDir, when non-empty, makes the server crash-safe: every
	// sweep journals under <dir>/<fingerprint>.journal, every job event
	// journals to <dir>/jobs.log, and a restarted server replays the job
	// log and re-adopts unfinished jobs (resuming their sweep journals)
	// before accepting traffic.
	checkpointDir string
	// drainGrace bounds Drain when its context has no deadline (0 waits).
	drainGrace time.Duration
	// heartbeat is the SSE keepalive period (0 uses 15s; tests shorten).
	heartbeat time.Duration
	// defaults are the server's base solver options; request options
	// override field-by-field.
	defaults core.Options
	// chaos arms the serving-layer fault sites (nil in production).
	chaos *chaos.Injector
}

// server is one cbsd instance: job manager + result cache + HTTP mux.
type server struct {
	cfg   serverConfig
	mgr   *jobs.Manager
	cache *rescache.Cache
	mux   *http.ServeMux
	start time.Time

	// solveCount/solveNanos time actual backend solves (cache misses);
	// hits never touch them.
	solveCount atomic.Int64
	solveNanos atomic.Int64
}

// activeServer is the instance /metrics reads. expvar registration is
// process-global and permanent, so the var is published once and
// indirects through this pointer — tests that build several servers just
// repoint it.
var activeServer atomic.Pointer[server]

var publishOnce sync.Once

// newServer assembles a server and makes it the active metrics target.
// With a checkpoint directory it opens (or replays) the persistent job
// log first: jobs journaled by a previous process are re-adopted — their
// tasks rebuilt from the journaled request spec and re-enqueued under
// their original IDs — or typed-failed, before the first request lands.
// A job log written for a different operator is a startup error, not a
// silent reset.
func newServer(cfg serverConfig) (*server, error) {
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.queueDepth < 1 {
		cfg.queueDepth = 16
	}
	if cfg.cacheEntries < 1 {
		cfg.cacheEntries = 256
	}
	// The pool's jobs share the cores; a sweep splits its job's share
	// again over its energies (sweep.Run).
	cfg.defaults.Parallel = cfg.defaults.Parallel.Split(cfg.workers)

	var store *jobs.Store
	var replayed []jobs.ReplayedJob
	if cfg.checkpointDir != "" {
		var err error
		store, replayed, err = jobs.OpenStore(
			filepath.Join(cfg.checkpointDir, "jobs.log"),
			fingerprint.Operator(cfg.backend.desc),
		)
		if err != nil {
			return nil, fmt.Errorf("opening job log: %w", err)
		}
		store.SetChaos(cfg.chaos)
	}

	s := &server{
		cfg: cfg,
		mgr: jobs.New(jobs.Config{
			Workers: cfg.workers, QueueDepth: cfg.queueDepth,
			Store: store, DrainGrace: cfg.drainGrace, Chaos: cfg.chaos,
		}),
		cache: rescache.New(cfg.cacheEntries),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.cache.SetChaos(cfg.chaos)
	s.mgr.Adopt(replayed, s.rebuildTask)

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", expvar.Handler())
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/bands", s.handleBands)
	s.mux.HandleFunc("POST /v1/transport", s.handleTransport)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)

	activeServer.Store(s)
	publishOnce.Do(func() {
		expvar.Publish("cbsd", expvar.Func(func() any {
			if cur := activeServer.Load(); cur != nil {
				return cur.metricsSnapshot()
			}
			return nil
		}))
	})
	return s, nil
}

// Handler returns the HTTP entry point.
func (s *server) Handler() http.Handler { return s.mux }

// Drain is the SIGTERM path: reject new work, let in-flight jobs finish
// until ctx expires, then cancel them (sweeps have already journaled
// every completed energy) and wait for the workers to unwind.
func (s *server) Drain(ctx context.Context) error { return s.mgr.Drain(ctx) }

// metricsSnapshot is the /metrics payload under the "cbsd" expvar.
func (s *server) metricsSnapshot() any {
	cs := s.cache.Stats()
	jm := s.mgr.Metrics()
	n := s.solveCount.Load()
	mean := 0.0
	if n > 0 {
		mean = float64(s.solveNanos.Load()) / float64(n) / 1e6
	}
	return map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"cache": map[string]any{
			"hits": cs.Hits, "misses": cs.Misses, "deduped": cs.Deduped,
			"puts":      cs.Puts,
			"evictions": cs.Evictions, "entries": cs.Entries, "in_flight": cs.InFlight,
		},
		"jobs": map[string]any{
			"submitted": jm.Submitted, "rejected": jm.Rejected,
			"completed": jm.Completed, "failed": jm.Failed, "canceled": jm.Canceled,
			"readopted": jm.Readopted, "restored": jm.Restored, "log_errors": jm.LogErrors,
			"queue_depth": jm.QueueDepth, "in_flight": jm.InFlight,
			"busy_ms": float64(jm.BusyNanos) / 1e6,
		},
		"solve": map[string]any{
			"count": n, "total_ms": float64(s.solveNanos.Load()) / 1e6, "mean_ms": mean,
		},
	}
}

// --- request/response schema ---

// optionsJSON is the client-settable slice of core.Options: exactly the
// result-affecting fields the fingerprint hashes, so a request's identity
// is fully determined by its body. The parallel layout stays server-side.
type optionsJSON struct {
	Nint        *int     `json:"nint,omitempty"`
	Nmm         *int     `json:"nmm,omitempty"`
	Nrh         *int     `json:"nrh,omitempty"`
	Delta       *float64 `json:"delta,omitempty"`
	LambdaMin   *float64 `json:"lambda_min,omitempty"`
	BiCGTol     *float64 `json:"bicg_tol,omitempty"`
	MaxIter     *int     `json:"max_iter,omitempty"`
	ResidualTol *float64 `json:"residual_tol,omitempty"`
	Balance     *bool    `json:"balance,omitempty"`
	Seed        *int64   `json:"seed,omitempty"`
}

// apply overlays the request options on the server defaults.
func (oj *optionsJSON) apply(base core.Options) core.Options {
	if oj == nil {
		return base
	}
	overlay(&base.Nint, oj.Nint)
	overlay(&base.Nmm, oj.Nmm)
	overlay(&base.Nrh, oj.Nrh)
	overlay(&base.Delta, oj.Delta)
	overlay(&base.LambdaMin, oj.LambdaMin)
	overlay(&base.BiCGTol, oj.BiCGTol)
	overlay(&base.MaxIter, oj.MaxIter)
	overlay(&base.ResidualTol, oj.ResidualTol)
	overlay(&base.LoadBalanceStop, oj.Balance)
	overlay(&base.Seed, oj.Seed)
	return base
}

// overlay sets *dst to the request's value when the request carries one.
func overlay[T any](dst, src *T) {
	if src != nil {
		*dst = *src
	}
}

// solveRequest is POST /v1/solve: one energy, in eV relative to EF or
// absolute hartree.
type solveRequest struct {
	EnergyEV      *float64     `json:"energy_ev,omitempty"`
	EnergyHartree *float64     `json:"energy_hartree,omitempty"`
	Options       *optionsJSON `json:"options,omitempty"`
}

// energyWindow is the energy half of every multi-energy request: an
// explicit list or a uniform window, both in eV relative to EF.
type energyWindow struct {
	EnergiesEV []float64 `json:"energies_ev,omitempty"`
	EminEV     *float64  `json:"emin_ev,omitempty"`
	EmaxEV     *float64  `json:"emax_ev,omitempty"`
	NE         int       `json:"ne,omitempty"`
}

// sweepRequest is POST /v1/sweep.
type sweepRequest struct {
	energyWindow
	Options *optionsJSON `json:"options,omitempty"`
}

// bandsRequest is POST /v1/bands: a batch complex-band-structure request —
// an energy window (or explicit list) swept through the sweep engine, with
// the k-path projection built server-side. kmax_im (in units of pi/a)
// optionally drops fast-decaying evanescent branches from the projection;
// it is presentation-only and does not change the computation or its
// fingerprint.
type bandsRequest struct {
	energyWindow
	KmaxIm  float64      `json:"kmax_im,omitempty"`
	Options *optionsJSON `json:"options,omitempty"`
}

// transportRequest is POST /v1/transport: a T(E) curve through a device —
// an energy window (or explicit list) swept through the CBS -> NEGF
// pipeline. The device is cells principal layers of the lead cell with
// optional per-cell diagonal barrier shifts (hartree). bias_hartree, when
// present, additionally integrates the Landauer I-V at those biases
// (presentation-time: it does not change the computation's fingerprint).
type transportRequest struct {
	energyWindow
	Cells          int          `json:"cells,omitempty"`
	BarrierHartree []float64    `json:"barrier_hartree,omitempty"`
	Eta            float64      `json:"eta,omitempty"`
	PropagatingTol float64      `json:"propagating_tol,omitempty"`
	BiasHartree    []float64    `json:"bias_hartree,omitempty"`
	KTHartree      float64      `json:"kt_hartree,omitempty"`
	Options        *optionsJSON `json:"options,omitempty"`
}

// jobSpec is the journaled form of a request: everything needed to
// rebuild the job's task after a restart, in server units (hartree) with
// the client's option overlay — the overlay is replayed onto the current
// defaults, and the fingerprint guard catches any drift (plan).
type jobSpec struct {
	Type            jobs.Kind    `json:"type"` // solve | sweep | bands | transport
	EnergyHartree   float64      `json:"energy_hartree,omitempty"`
	EnergiesHartree []float64    `json:"energies_hartree,omitempty"`
	KmaxIm          float64      `json:"kmax_im,omitempty"`
	Cells           int          `json:"cells,omitempty"`
	BarrierHartree  []float64    `json:"barrier_hartree,omitempty"`
	Eta             float64      `json:"eta,omitempty"`
	PropagatingTol  float64      `json:"propagating_tol,omitempty"`
	BiasHartree     []float64    `json:"bias_hartree,omitempty"`
	KTHartree       float64      `json:"kt_hartree,omitempty"`
	Options         *optionsJSON `json:"options,omitempty"`
}

// negfSpec reconstructs the NEGF half of a transport job spec.
func (js jobSpec) negfSpec(es []float64) negf.Spec {
	return negf.Spec{
		Energies: es,
		Device:   negf.Device{Cells: js.Cells, Barrier: js.BarrierHartree},
		Options:  negf.Options{Eta: js.Eta, PropagatingTol: js.PropagatingTol},
	}
}

// submitResponse acknowledges an accepted job (HTTP 202).
type submitResponse struct {
	ID          string `json:"id"`
	StatusURL   string `json:"status_url"`
	Fingerprint string `json:"fingerprint"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// progressJSON is per-energy sweep progress.
type progressJSON struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// energyJSON is one sweep energy's terminal state in a job response.
type energyJSON struct {
	Index       int               `json:"index"`
	EnergyEV    float64           `json:"energy_ev"`
	Status      sweep.Status      `json:"status"`
	Attempts    int               `json:"attempts,omitempty"`
	Restored    bool              `json:"restored,omitempty"`
	Escalations []string          `json:"escalations,omitempty"`
	Error       string            `json:"error,omitempty"`
	Result      *sweep.ResultJSON `json:"result,omitempty"`
}

// sweepJSON summarizes a finished sweep job.
type sweepJSON struct {
	OK       int          `json:"ok"`
	Degraded int          `json:"degraded"`
	Failed   int          `json:"failed"`
	Skipped  int          `json:"skipped"`
	Restored int          `json:"restored"`
	Attempts int          `json:"attempts"`
	Energies []energyJSON `json:"energies"`
}

// bandRowJSON is one (energy, k) point of a bands projection: the complex
// Bloch wavevector in units of pi/a (Re on a propagating branch, |Im| the
// decay rate of an evanescent one).
type bandRowJSON struct {
	EnergyEV float64 `json:"energy_ev"`
	KRePiA   float64 `json:"k_re_pi_a"`
	KImPiA   float64 `json:"k_im_pi_a"`
	Residual float64 `json:"residual,omitempty"`
}

// bandsJSON is the batch band-structure projection of a bands job.
type bandsJSON struct {
	KmaxIm float64       `json:"kmax_im,omitempty"`
	Rows   []bandRowJSON `json:"rows"`
}

// transportPointJSON is T(E) at one energy of a transport job.
type transportPointJSON struct {
	EnergyEV float64 `json:"energy_ev"`
	T        float64 `json:"t"`
	NOpen    int     `json:"n_open"`
	Beta     float64 `json:"beta,omitempty"`
	NFill    int     `json:"n_fill,omitempty"`
	Status   string  `json:"status"`
	Error    string  `json:"error,omitempty"`
}

// ivPointJSON is one Landauer I-V point.
type ivPointJSON struct {
	VHartree float64 `json:"v_hartree"`
	I        float64 `json:"i"`
}

// transportJSON is the curve of a finished transport job, plus the
// Landauer I-V if the request asked for biases.
type transportJSON struct {
	Points []transportPointJSON `json:"points"`
	IV     []ivPointJSON        `json:"iv,omitempty"`
}

// jobJSON is GET /v1/jobs/{id}.
type jobJSON struct {
	ID           string            `json:"id"`
	Kind         jobs.Kind         `json:"kind"`
	State        jobs.State        `json:"state"`
	Client       string            `json:"client,omitempty"`
	Fingerprint  string            `json:"fingerprint,omitempty"`
	Restored     bool              `json:"restored,omitempty"`
	Submitted    string            `json:"submitted"`
	Started      string            `json:"started,omitempty"`
	Finished     string            `json:"finished,omitempty"`
	Progress     *progressJSON     `json:"progress,omitempty"`
	CacheOutcome rescache.Outcome  `json:"cache_outcome,omitempty"`
	Error        string            `json:"error,omitempty"`
	CellLength   float64           `json:"cell_length_bohr,omitempty"`
	Result       *sweep.ResultJSON `json:"result,omitempty"`
	Sweep        *sweepJSON        `json:"sweep,omitempty"`
	Bands        *bandsJSON        `json:"bands,omitempty"`
	Transport    *transportJSON    `json:"transport,omitempty"`
}

// --- handlers ---

// decodeStrict decodes one JSON value into v and rejects any field v does
// not declare: a misspelt or retired option fails the request (the error
// names the field) instead of silently running under the defaults, and a
// journaled spec from an older server that carries one is not re-adopted.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Request bounds. Both are far above any real request (the paper's scans are
// 200 energies; a full-size explicit list is a few hundred kB) and exist so
// that no request body can make the server allocate without limit.
const (
	maxBodyBytes = 1 << 20 // POST body size
	maxEnergies  = 10000   // energies of one sweep, bands or transport job
)

// decodeRequest strictly decodes a POST body of at most maxBodyBytes into v,
// answering the 4xx itself when it cannot.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: fmt.Sprintf("request body exceeds the limit of %d bytes", maxBodyBytes),
		})
	default:
		writeError(w, fmt.Errorf("bad request body: %w", err))
	}
	return false
}

// writeJSON sends v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response already committed
}

// retryAfterSeconds is the base 429 backoff hint. Each response jitters
// it by ±20% so a burst of rejected clients does not come back as the
// same synchronized burst one backoff later (retry stampede).
const retryAfterSeconds = 5.0

func retryAfter() string {
	jittered := retryAfterSeconds * (0.8 + 0.4*rand.Float64())
	secs := int(math.Round(jittered))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeError maps the job layer's typed sentinels onto HTTP status codes:
// a full queue is 429 with a jittered Retry-After (back off, the pool is
// saturated), draining is 503 (the process is going away), unknown IDs
// are 404.
func writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", retryAfter())
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, jobs.ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, jobs.ErrNotFound):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.mgr.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// resolveEnergy converts a solve request's energy to hartree.
func (s *server) resolveEnergy(req solveRequest) (float64, error) {
	switch {
	case req.EnergyHartree != nil:
		return *req.EnergyHartree, nil
	case req.EnergyEV != nil:
		return s.cfg.backend.ef + units.EVToHartree(*req.EnergyEV), nil
	default:
		return 0, errors.New("request must set energy_ev or energy_hartree")
	}
}

// clientID extracts the fairness key of a request: the X-CBS-Client
// header if the caller identifies itself, else the remote host — every
// unnamed caller on one machine shares a queue.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-CBS-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// clientWeight reads the X-CBS-Weight header (1..8; the jobs layer
// clamps). Weight buys a proportionally larger dispatch share under
// contention, nothing when the server is idle.
func clientWeight(r *http.Request) int {
	if v := r.Header.Get("X-CBS-Weight"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return 1
}

// submit plans, journals and enqueues the job of spec, answering 202 with
// the job ID or the mapped error.
func (s *server) submit(w http.ResponseWriter, r *http.Request, spec jobSpec) {
	fp, task, err := s.plan(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	id, err := s.mgr.Submit(jobs.Submission{
		Kind:        spec.Type,
		Client:      clientID(r),
		Weight:      clientWeight(r),
		Fingerprint: fp,
		Spec:        raw,
		Task:        task,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID: id, StatusURL: "/v1/jobs/" + id, Fingerprint: fp,
	})
}

// cachedSolve is the one backend solve of the server: wrapped in the
// fingerprint-keyed result cache with singleflight, and timed on a miss
// (hits never touch the solve timers).
func (s *server) cachedSolve(ctx context.Context, e float64, opts core.Options, fp string) (*core.Result, rescache.Outcome, error) {
	return s.cache.Do(ctx, fp, func(ctx context.Context) (*core.Result, error) {
		t0 := time.Now()
		res, err := s.cfg.backend.solve(ctx, e, opts)
		s.solveCount.Add(1)
		s.solveNanos.Add(int64(time.Since(t0)))
		return res, err
	})
}

// solveTask builds the task of a single-energy solve.
func (s *server) solveTask(e float64, opts core.Options, fp string) jobs.Task {
	return func(ctx context.Context, _ func(int, int)) (jobs.Outcome, error) {
		res, outcome, err := s.cachedSolve(ctx, e, opts, fp)
		return jobs.Outcome{Result: res, CacheOutcome: outcome}, err
	}
}

// sweepConfig is the sweep-engine configuration of a multi-energy job of n
// energies: per-energy progress ticks and, with a checkpoint directory, a
// journal keyed by the job's fingerprint — resubmitting the same job after
// a crash or restart resumes instead of re-solving (Resume creates the file
// if it does not exist).
func (s *server) sweepConfig(fp string, n int, progress func(int, int)) sweep.Config {
	var done atomic.Int64
	scfg := sweep.Config{
		Workers:      s.cfg.sweepWorkers,
		OperatorDesc: s.cfg.backend.desc,
		Chaos:        s.cfg.chaos,
		OnEnergy:     func(sweep.EnergyResult) { progress(int(done.Add(1)), n) },
	}
	if s.cfg.checkpointDir != "" {
		scfg.CheckpointPath = filepath.Join(s.cfg.checkpointDir, fp+".journal")
		scfg.Resume = true
	}
	return scfg
}

// sweepTask builds the task of a sweep (or bands) job.
func (s *server) sweepTask(es []float64, opts core.Options, fp string) jobs.Task {
	return func(ctx context.Context, progress func(int, int)) (jobs.Outcome, error) {
		scfg := s.sweepConfig(fp, len(es), progress)
		tick := scfg.OnEnergy
		scfg.OnEnergy = func(er sweep.EnergyResult) {
			tick(er)
			// Cross-pollinate the solve cache: a sweep energy is a
			// one-element sweep by fingerprint construction, so a later
			// POST /v1/solve at this energy is a cache hit — but only
			// when the ladder escalated nothing, so the result is the
			// one the request's options compute.
			if er.Result != nil && len(er.Escalations) == 0 {
				s.cache.Put(fingerprint.Solve(s.cfg.backend.desc, er.Energy, opts), er.Result)
			}
		}
		report, err := sweep.Run(ctx, s.cfg.backend.solve, es, opts, scfg)
		return jobs.Outcome{Report: report}, err
	}
}

// transportTask builds the task of a transport job: the CBS sweep runs
// through the cache-wrapped solve — its per-energy unit is a one-element
// sweep by fingerprint construction, so a repeated transport request, or a
// plain /v1/solve at one of its energies, costs no new solves — then the
// NEGF post-processing turns each energy into T(E).
func (s *server) transportTask(spec negf.Spec, opts core.Options, fp string) jobs.Task {
	return func(ctx context.Context, progress func(int, int)) (jobs.Outcome, error) {
		spec.Chaos = s.cfg.chaos
		solve := func(ctx context.Context, e float64, o core.Options) (*core.Result, error) {
			res, _, err := s.cachedSolve(ctx, e, o, fingerprint.Solve(s.cfg.backend.desc, e, o))
			return res, err
		}
		curve, err := s.cfg.backend.transport(ctx, solve, spec, opts, s.sweepConfig(fp, len(spec.Energies), progress))
		return jobs.Outcome{Curve: curve}, err
	}
}

// plan maps a job spec to its fingerprint and its task: the one
// spec-to-job path, taken by the four POST handlers and by the restart
// re-adoption of a journaled spec. The option overlay applies to the
// current defaults.
func (s *server) plan(spec jobSpec) (string, jobs.Task, error) {
	opts := spec.Options.apply(s.cfg.defaults)
	desc, es := s.cfg.backend.desc, spec.EnergiesHartree
	if spec.Type != jobs.KindSolve && len(es) == 0 {
		return "", nil, errors.New("job spec has no energies")
	}
	switch spec.Type {
	case jobs.KindSolve:
		fp := fingerprint.Solve(desc, spec.EnergyHartree, opts)
		return fp, s.solveTask(spec.EnergyHartree, opts, fp), nil
	case jobs.KindSweep, jobs.KindBands:
		fp := fingerprint.Key(desc, es, opts)
		return fp, s.sweepTask(es, opts, fp), nil
	case jobs.KindTransport:
		if s.cfg.backend.transport == nil {
			return "", nil, errors.New("this server has no transport backend")
		}
		nspec := spec.negfSpec(es)
		if err := nspec.Device.Validate(); err != nil {
			return "", nil, err
		}
		fp := fingerprint.Transport(desc, es, opts, nspec.PostDesc())
		return fp, s.transportTask(nspec, opts, fp), nil
	default:
		return "", nil, fmt.Errorf("unknown job spec type %q", spec.Type)
	}
}

// rebuildTask reconstructs a replayed job's task from its journaled spec
// (the restart re-adoption path). The spec is decoded first, so a retired
// option fails naming it; a spec that now plans to another fingerprint —
// drifted defaults or operator — is refused rather than run as changed
// physics under the old ID and journal.
func (s *server) rebuildTask(rj jobs.ReplayedJob) (jobs.Task, error) {
	var spec jobSpec
	if err := decodeStrict(bytes.NewReader(rj.Spec), &spec); err != nil {
		return nil, fmt.Errorf("unreadable job spec: %w", err)
	}
	fp, task, err := s.plan(spec)
	if err != nil {
		return nil, err
	}
	if fp != rj.Fingerprint {
		return nil, fmt.Errorf("%w: job %s was journaled as %s, its spec now plans to %s",
			sweep.ErrFingerprintMismatch, rj.ID, rj.Fingerprint, fp)
	}
	return task, nil
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	e, err := s.resolveEnergy(req)
	if err != nil {
		writeError(w, err)
		return
	}
	s.submit(w, r, jobSpec{Type: jobs.KindSolve, EnergyHartree: e, Options: req.Options})
}

// sweepEnergies expands an energy window to its hartree energy list, at
// most maxEnergies long.
func (s *server) sweepEnergies(req energyWindow) ([]float64, error) {
	if n := max(len(req.EnergiesEV), req.NE); n > maxEnergies {
		return nil, fmt.Errorf("%d energies exceed the limit of %d per request", n, maxEnergies)
	}
	if len(req.EnergiesEV) > 0 {
		es := make([]float64, len(req.EnergiesEV))
		for i, ev := range req.EnergiesEV {
			es[i] = s.cfg.backend.ef + units.EVToHartree(ev)
		}
		return es, nil
	}
	if req.EminEV == nil || req.EmaxEV == nil || req.NE < 1 {
		return nil, errors.New("request must set energies_ev or emin_ev/emax_ev/ne")
	}
	es := make([]float64, req.NE)
	for i := range es {
		f := 0.0
		if req.NE > 1 {
			f = float64(i) / float64(req.NE-1)
		}
		es[i] = s.cfg.backend.ef + units.EVToHartree(*req.EminEV+(*req.EmaxEV-*req.EminEV)*f)
	}
	return es, nil
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if decodeRequest(w, r, &req) {
		s.submitWindow(w, r, req.energyWindow, jobSpec{Type: jobs.KindSweep, Options: req.Options})
	}
}

// handleBands is the batch endpoint: one request sweeps an energy window
// and comes back as band-structure rows (GET projects k in units of
// pi/a). A bands job shares its fingerprint — and therefore its
// checkpoint journal and cache entries — with the equivalent sweep: the
// kmax_im filter is presentation-time and costs nothing to change.
func (s *server) handleBands(w http.ResponseWriter, r *http.Request) {
	var req bandsRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.KmaxIm < 0 {
		writeError(w, errors.New("kmax_im must be >= 0"))
		return
	}
	s.submitWindow(w, r, req.energyWindow, jobSpec{Type: jobs.KindBands, KmaxIm: req.KmaxIm, Options: req.Options})
}

// submitWindow expands the energy window of a multi-energy request into
// its spec and submits it; spec arrives with everything but its energies.
func (s *server) submitWindow(w http.ResponseWriter, r *http.Request, win energyWindow, spec jobSpec) {
	es, err := s.sweepEnergies(win)
	if err != nil {
		writeError(w, err)
		return
	}
	spec.EnergiesHartree = es
	s.submit(w, r, spec)
}

// handleTransport is the CBS -> NEGF endpoint: one request sweeps an
// energy window and comes back as a transmission curve T(E) (plus the
// Landauer I-V when biases are given). The fingerprint covers the sweep
// identity and the device/NEGF options, so identical transport requests
// share their journal, and the per-energy solves share the result cache
// with /v1/solve and repeated transport submissions.
func (s *server) handleTransport(w http.ResponseWriter, r *http.Request) {
	var req transportRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.Cells < 1 {
		req.Cells = 1
	}
	s.submitWindow(w, r, req.energyWindow, jobSpec{
		Type:  jobs.KindTransport,
		Cells: req.Cells, BarrierHartree: req.BarrierHartree,
		Eta: req.Eta, PropagatingTol: req.PropagatingTol,
		BiasHartree: req.BiasHartree, KTHartree: req.KTHartree,
		Options: req.Options,
	})
}

// stripVectors drops the eigenvector payload (the dominant weight of a
// result) unless the client asked for it.
func stripVectors(rj *sweep.ResultJSON) *sweep.ResultJSON {
	if rj == nil {
		return nil
	}
	out := *rj
	out.Pairs = make([]sweep.PairJSON, len(rj.Pairs))
	for i, p := range rj.Pairs {
		p.Psi = nil
		out.Pairs[i] = p
	}
	return &out
}

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	withVectors := r.URL.Query().Get("vectors") == "1"
	project := func(res *core.Result) *sweep.ResultJSON {
		rj := sweep.EncodeResult(res)
		if !withVectors {
			rj = stripVectors(rj)
		}
		return rj
	}

	out := jobJSON{
		ID: snap.ID, Kind: snap.Kind, State: snap.State,
		Client: snap.Client, Fingerprint: snap.Fingerprint, Restored: snap.Restored,
		Submitted:    snap.Submitted.UTC().Format(time.RFC3339Nano),
		CacheOutcome: snap.Outcome.CacheOutcome,
		CellLength:   s.cfg.backend.a,
	}
	if !snap.Started.IsZero() {
		out.Started = snap.Started.UTC().Format(time.RFC3339Nano)
	}
	if !snap.Finished.IsZero() {
		out.Finished = snap.Finished.UTC().Format(time.RFC3339Nano)
	}
	if snap.Total > 0 {
		out.Progress = &progressJSON{Done: snap.Done, Total: snap.Total}
	}
	if snap.Err != nil {
		out.Error = snap.Err.Error()
	}
	if snap.Outcome.Result != nil {
		out.Result = project(snap.Outcome.Result)
	}
	if rep := snap.Outcome.Report; rep != nil {
		sj := &sweepJSON{
			OK: rep.OK, Degraded: rep.Degraded, Failed: rep.Failed,
			Skipped: rep.Skipped, Restored: rep.Restored, Attempts: rep.Attempts,
		}
		for _, er := range rep.Results {
			ej := energyJSON{
				Index:       er.Index,
				EnergyEV:    units.HartreeToEV(er.Energy - s.cfg.backend.ef),
				Status:      er.Status,
				Attempts:    er.Attempts,
				Restored:    er.FromJournal,
				Escalations: er.Escalations,
				Result:      project(er.Result),
			}
			if er.Err != nil {
				ej.Error = er.Err.Error()
			}
			sj.Energies = append(sj.Energies, ej)
		}
		out.Sweep = sj
		if snap.Kind == jobs.KindBands {
			out.Bands = s.bandsProjection(snap, rep)
		}
	}
	if snap.Outcome.Curve != nil {
		out.Transport = s.transportProjection(snap, snap.Outcome.Curve)
	}
	writeJSON(w, http.StatusOK, out)
}

// transportProjection converts a transport curve to response units and,
// when the journaled spec carries biases, integrates the Landauer I-V
// around the server's Fermi level (presentation-time, like the bands
// kmax_im filter).
func (s *server) transportProjection(snap jobs.Snapshot, curve *negf.Curve) *transportJSON {
	tj := &transportJSON{}
	for _, p := range curve.Points {
		tj.Points = append(tj.Points, transportPointJSON{
			EnergyEV: units.HartreeToEV(p.E - s.cfg.backend.ef),
			T:        p.T, NOpen: p.NOpen, Beta: p.Beta, NFill: p.NFill,
			Status: string(p.Status), Error: p.Err,
		})
	}
	var spec jobSpec
	json.Unmarshal(snap.Spec, &spec) //nolint:errcheck // the spec was journaled by us; no biases just skips the I-V
	if len(spec.BiasHartree) > 0 {
		iv := negf.LandauerIV(curve.OK(), negf.BiasSpec{
			EFermi: s.cfg.backend.ef, KT: spec.KTHartree, Biases: spec.BiasHartree,
		})
		for _, p := range iv {
			tj.IV = append(tj.IV, ivPointJSON{VHartree: p.V, I: p.I})
		}
	}
	return tj
}

// bandsProjection flattens a bands job's sweep report into (E, k) rows
// with k in units of pi/a, dropping evanescent branches beyond the
// request's kmax_im.
func (s *server) bandsProjection(snap jobs.Snapshot, rep *sweep.Report) *bandsJSON {
	var spec jobSpec
	json.Unmarshal(snap.Spec, &spec) //nolint:errcheck // the spec was journaled by us; a zero KmaxIm just keeps every row
	scale := s.cfg.backend.a / math.Pi
	bj := &bandsJSON{KmaxIm: spec.KmaxIm}
	for _, er := range rep.Results {
		if er.Result == nil {
			continue
		}
		for _, p := range er.Result.Pairs {
			kIm := imag(p.K) * scale
			if spec.KmaxIm > 0 && math.Abs(kIm) > spec.KmaxIm {
				continue
			}
			bj.Rows = append(bj.Rows, bandRowJSON{
				EnergyEV: units.HartreeToEV(er.Energy - s.cfg.backend.ef),
				KRePiA:   real(p.K) * scale,
				KImPiA:   kIm,
				Residual: p.Residual,
			})
		}
	}
	return bj
}

// handleJobEvents is the SSE stream of one job's lifecycle: every state
// transition and progress tick as a sequenced event, a comment heartbeat
// while idle, and Last-Event-ID replay on reconnect — the sequence
// numbers come from the job log, so the replay is gapless even across a
// server restart.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	var after int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, fmt.Errorf("bad Last-Event-ID %q: %w", v, err))
			return
		}
		after = n
	}
	past, live, cancel, err := s.mgr.Watch(r.PathValue("id"), after)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errors.New("streaming unsupported by this connection"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	writeEvent := func(ev jobs.Event) bool {
		data, merr := json.Marshal(ev)
		if merr != nil {
			return true
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Ev, data)
		fl.Flush()
		return ev.Final
	}
	for _, ev := range past {
		if writeEvent(ev) {
			return
		}
	}
	if live == nil {
		return // terminal job: the backlog was the whole story
	}
	hb := s.cfg.heartbeat
	if hb <= 0 {
		hb = 15 * time.Second
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				// We fell subBuffer events behind and were disconnected;
				// the client's EventSource reconnects with Last-Event-ID
				// and replays the gap.
				return
			}
			if writeEvent(ev) {
				return
			}
		case <-ticker.C:
			fmt.Fprint(w, ": hb\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobCancel is DELETE /v1/jobs/{id}: cancellation for live jobs
// (202 — the wind-down is asynchronous), idempotent success for jobs
// already in a terminal state (200 with that state, so retrying a cancel
// is always safe).
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.mgr.Get(id)
	if err != nil {
		writeError(w, err)
		return
	}
	if snap.State.Terminal() {
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "state": snap.State})
		return
	}
	if err := s.mgr.Cancel(id); err != nil {
		writeError(w, err)
		return
	}
	snap, err = s.mgr.Get(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "state": snap.State})
}
