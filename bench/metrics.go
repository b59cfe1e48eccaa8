package main

// metricDef describes one reported metric. The catalogue below is the single
// source of truth for names, units and bounds: BENCHMARK.json mirrors it (a
// test compares the two) and README.md must mention every name.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Help   string
}

// endToEnd lists what a user of the stack sees. Every workload reports every
// one of them (BENCHMARK.json contract), so each name has one reading per
// workload; README.md tabulates them. In short: solve_s is the time the
// solver reports (or the caller measures) for one energy, solve_miss_* is
// what the caller waits for a freshly solved energy, solve_hit_p50_ms what
// it waits for an energy that is already known (cbsd cache hit; checkpoint
// restore for the in-process workloads).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "model build + lazy tables + one reduced warm-up solve (cbsd: exec to /healthz 200; fleet: + Coordinate call to all workers registered)"},
	{"solve_s", "s", "lower", 0.20, "median time of one energy's contour solve"},
	{"energies_per_s", "1/s", "higher", 0.25, "energies ending OK per second of wall time of the timed calls"},
	{"jobs_per_s", "1/s", "higher", 0.25, "top-level calls (SolveCBS, SweepCBS, TransportCBS, CoordinateFleet) per second of their median wall time; cbsd jobs completed per second"},
	{"solve_miss_p50_ms", "ms", "lower", 0.20, "median latency the caller sees for one freshly solved energy"},
	{"solve_miss_p90_ms", "ms", "lower", 0.25, "p90 of the same, or the highest percentile with ten samples beyond it when there are fewer than 100"},
	{"solve_hit_p50_ms", "ms", "lower", 0.25, "median latency of an energy served without solving (cache hit / checkpoint restore)"},
}

// perLayer lists the single-layer metrics of the traced run, named after the
// repo's modules. A workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	// Solver stack: should move solve_s on solve_al and energies_per_s on
	// sweep_al / fleet_al; predicted no move on serve_tb latencies.
	{Name: "hamiltonian.build_ms", Unit: "ms", Better: "lower", Help: "NewModel + SoA tables"},
	{Name: "hamiltonian.h0_block_ns_per_col", Unit: "ns", Better: "lower", Help: "direct SoATables[float64].ApplyH0Block, nb=16, per column"},
	{Name: "hamiltonian.h0_block_bytes_computed", Unit: "B", Better: "lower", Help: "bytes one H0 block apply must move, computed from array sizes (not measured)"},
	{Name: "qep.pz_block_ns_per_col", Unit: "ns", Better: "lower", Help: "direct qep.ApplyBlockSoA at the first outer quadrature point, per column"},
	{Name: "qep.pz_time_share", Unit: "ratio", Better: "lower", Help: "linsolve.matvecs x qep.pz_block_ns_per_col / solve time: the most a faster kernel can save"},
	{Name: "linsolve.iters_per_col", Unit: "count", Better: "lower", Help: "Krylov iterations per (point, column) system, first solve of the run"},
	{Name: "linsolve.matvecs", Unit: "count", Better: "lower", Help: "operator applications of the first solve (sweeps: first repetition)"},
	{Name: "linsolve.iters_spread", Unit: "ratio", Better: "lower", Help: "max/min of Points[].Iterations (paper Fig. 5 as data)"},
	{Name: "linsolve.point_block_ms", Unit: "ms", Better: "lower", Help: "one direct BlockBiCGDualSoA call on a 16-column block"},
	{Name: "linsolve.ns_per_iter_col", Unit: "ns", Better: "lower", Help: "the same call per iteration and column"},
	{Name: "linsolve.ladder_events", Unit: "count", Better: "lower", Help: "breakdowns + restarts + fallbacks + dropped pairs (expect 0)"},
	{Name: "core.solve_linear_share", Unit: "ratio", Better: "lower", Help: "Timings.SolveLinear / total (paper Table 1 as data)"},
	{Name: "core.setup_ms", Unit: "ms", Better: "lower", Help: "Timings.Setup per solve"},
	{Name: "core.extract_ms", Unit: "ms", Better: "lower", Help: "Timings.Extract per solve"},
	{Name: "core.allocs_per_solve", Unit: "count", Better: "lower", Help: "MemStats.Mallocs delta of one solve"},
	{Name: "core.alloc_mb_per_solve", Unit: "MB", Better: "lower", Help: "MemStats.TotalAlloc delta of one solve"},
	{Name: "core.pairs", Unit: "count", Better: "higher", Help: "eigenpairs passing the residual filter"},
	{Name: "core.residual_max", Unit: "ratio", Better: "lower", Help: "worst relative QEP residual among returned pairs"},
	{Name: "core.lambda_dev_max", Unit: "ratio", Better: "lower", Help: "largest distance to the committed reference lambda set (0 without a reference)"},
	{Name: "core.pairing_dev_max", Unit: "ratio", Better: "lower", Help: "largest distance from 1/conj(lambda) to the nearest returned lambda"},
	// Extraction and the portable path: should move energies_per_s on
	// transport_tb, solve_s by at most 4 %.
	{Name: "ssm.extract_ms", Unit: "ms", Better: "lower", Help: "direct ssm.ExtractFromMoments on moments of the solved problem's shape and rank"},
	{Name: "ssm.rank", Unit: "count", Better: "lower", Help: "Hankel numerical rank of the first solve"},
	{Name: "qep.portable_block_ns_per_col", Unit: "ns", Better: "lower", Help: "Problem.ApplyBlock through operator.Backend on the slab, per column"},
	// Sweep, journal, NEGF: should move energies_per_s on transport_tb;
	// predicted invisible on sweep_al.
	{Name: "sweep.overhead_ms_per_energy", Unit: "ms", Better: "lower", Help: "(sweep wall - sum of wrapped solve spans) / energies"},
	{Name: "sweep.attempts_per_energy", Unit: "ratio", Better: "lower", Help: "Report.Attempts / energies (1 = no retries)"},
	{Name: "sweep.degraded", Unit: "count", Better: "lower", Help: "energies ending Degraded"},
	{Name: "journal.append_ms_p50", Unit: "ms", Better: "lower", Help: "direct journal.File.Append of the workload's median record, fsync included"},
	{Name: "journal.record_kb", Unit: "kB", Better: "lower", Help: "size of that record"},
	{Name: "negf.ms_per_energy", Unit: "ms", Better: "lower", Help: "direct Classify + LeadSelfEnergies + Transmission on a solved result"},
	{Name: "negf.quantization_dev_max", Unit: "ratio", Better: "lower", Help: "max |T(E) - analytic open-channel count|"},
	// Serving: should move solve_miss_*, solve_hit_p50_ms, jobs_per_s on
	// serve_tb only.
	{Name: "cbsd.ready_ms", Unit: "ms", Better: "lower", Help: "cbsd exec to /healthz 200"},
	{Name: "cbsd.submit_ms_p50", Unit: "ms", Better: "lower", Help: "POST round trip, durable queued record included"},
	{Name: "jobs.queue_wait_ms_p50", Unit: "ms", Better: "lower", Help: "started - submitted"},
	{Name: "jobs.run_ms_p50", Unit: "ms", Better: "lower", Help: "finished - started, cache misses"},
	{Name: "cbsd.notify_ms_p50", Unit: "ms", Better: "lower", Help: "terminal SSE event received - finished"},
	{Name: "cbsd.fetch_ms_p50", Unit: "ms", Better: "lower", Help: "GET /v1/jobs/{id} until the body is read"},
	{Name: "cbsd.result_kb_p50", Unit: "kB", Better: "lower", Help: "size of that body"},
	{Name: "cbsd.solve_mean_ms", Unit: "ms", Better: "lower", Help: "/metrics solve total / count delta"},
	{Name: "cbsd.solve_vs_inprocess_ratio", Unit: "ratio", Better: "lower", Help: "the same against the same energies solved in-process"},
	{Name: "rescache.hit_ratio", Unit: "ratio", Better: "higher", Help: "/metrics hits / (hits + misses) delta; must equal what the request lists predict"},
	{Name: "rescache.deduped", Unit: "count", Better: "lower", Help: "/metrics deduped delta (disjoint client pools: expect 0)"},
	{Name: "jobs.rejected_429", Unit: "count", Better: "lower", Help: "/metrics rejected delta (closed loop: expect 0)"},
	{Name: "jobs.log_errors", Unit: "count", Better: "lower", Help: "/metrics log_errors delta"},
	{Name: "cbsd.sweep_job_ms_p50", Unit: "ms", Better: "lower", Help: "latency of 4-energy /v1/sweep jobs"},
	{Name: "cbsd.bands_job_ms_p50", Unit: "ms", Better: "lower", Help: "latency of 4-energy /v1/bands jobs"},
	{Name: "cbsd.transport_job_ms_p50", Unit: "ms", Better: "lower", Help: "latency of 4-energy /v1/transport jobs"},
	{Name: "cbsd.peak_rss_mb", Unit: "MB", Better: "lower", Help: "VmHWM of the cbsd process"},
	// Fleet: should move energies_per_s on fleet_al only.
	{Name: "fleet.first_assign_ms", Unit: "ms", Better: "lower", Help: "all workers registered to the first wrapped solve starting"},
	{Name: "fleet.result_ship_ms_p50", Unit: "ms", Better: "lower", Help: "worker solve-span end to coordinator OnEnergy: encode + wire + TCP + journal"},
	{Name: "fleet.worker_idle_frac", Unit: "ratio", Better: "lower", Help: "1 - sum of solve spans / (workers x wall)"},
	{Name: "fleet.shard_imbalance", Unit: "ratio", Better: "lower", Help: "max / mean worker busy time; bounds any dispatch gain"},
	{Name: "fleet.duplicate_solves", Unit: "count", Better: "lower", Help: "wrapped solves beyond one per energy (expect 0)"},
	// On no workload's blocking path; tied to no end-to-end metric.
	{Name: "bandstructure.fermi_nk1_s", Unit: "s", Better: "lower", Help: "Model.FermiLevel(1) on the Al model; cmd/cbs and cbsd pay about 4x this at start"},
	{Name: "dist.ndm2_comm_bytes", Unit: "B", Better: "lower", Help: "Result.CommBytes of one Ndm:2 solve at Nint 8 (exact count)"},
	{Name: "dist.ndm2_solve_s", Unit: "s", Better: "lower", Help: "wall time of that solve; unresolved when nproc < 4, never a scaling ratio"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Help: "spans recorded x calibrated cost per span / traced wall time (computed)"},
}
