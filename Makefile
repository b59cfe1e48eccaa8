GO ?= go
CBSCHECK := bin/cbscheck

.PHONY: all build loc test test-noavx2 test-cpus race lint cbscheck fuzz-smoke chaos-smoke sweep-smoke serve-smoke serve-chaos net-smoke net-chaos negf-smoke bench-smoke layer-bench-smoke

all: build test

build:
	$(GO) build ./...

# loc prints the non-test Go lines of every package outside bench/ and their
# total: the table a simplicity PR reports before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' \
		-exec wc -l {} + | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

test: test-noavx2
	$(GO) test ./...

# test-noavx2 runs the packages on top of the soa asm kernels with the
# CBS_NO_AVX2 kill switch set, so the scalar arm of every dispatch (the only
# arm off amd64) passes the same bit-identity and parity tests on an AVX2
# host; obm, bandstructure and scf apply the blocks through the same
# kernels, so their bit goldens run on both arms too. The switch is read
# at package init, before the test log that keys the result cache sees it,
# so -count=1 keeps a cached AVX2 run from answering.
test-noavx2:
	CBS_NO_AVX2=1 $(GO) test -count=1 ./internal/soa ./internal/hamiltonian \
		./internal/qep ./internal/linsolve ./internal/core ./internal/tb \
		./internal/dist ./internal/zlinalg ./internal/ssm ./internal/negf \
		./internal/obm ./internal/bandstructure ./internal/scf

# test-cpus runs the core-share tests at 1, 2 and 4 procs: the resolver
# sizes a derived Mid and the NEGF fan-out from GOMAXPROCS, so the layout
# a sweep, a cbsd job or a transport curve gets must hold on any runner;
# the QR-preconditioned Hankel SVD must give its reference bits and its
# sweep count at every proc count.
test-cpus:
	$(GO) test -count=1 -cpu 1,2,4 -run 'TheShare|FanOutBitIdentical|SVDBits|HankelSVDSweeps' \
		./internal/core ./internal/sweep ./internal/negf ./cmd/cbsd ./internal/zlinalg

race:
	$(GO) test -race -short ./...

# cbscheck is the repo's custom vettool (see DESIGN.md §7); go vet rebuilds
# nothing itself, so the binary is built explicitly first.
cbscheck:
	$(GO) build -o $(CBSCHECK) ./cmd/cbscheck

lint: cbscheck
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "unformatted files:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -vettool=$(abspath $(CBSCHECK)) \
		-allowlist=$(abspath .cbscheck-allowlist) ./...
	$(GO) vet -vettool=$(abspath $(CBSCHECK)) \
		-allowlist=$(abspath .cbscheck-allowlist) -tests ./...

# chaos-smoke drives the resilience tests under the env-gated fault
# injector (internal/chaos) across a small deterministic seed matrix;
# -count=2 defeats the test cache so every seed actually runs.
chaos-smoke:
	for seed in 1 2 3; do \
		CBS_CHAOS=1 CBS_CHAOS_SEED=$$seed \
		$(GO) test -count=2 ./internal/linsolve ./internal/core || exit 1; \
	done

# sweep-smoke drives the durable-sweep engine (checkpoint journal, retry
# escalation, kill-and-resume) under sweep-level fault injection: per-energy
# hard faults, checkpoint write faults, torn journal records, plus the
# serving layer's job-pickup and cache forced-miss sites.
sweep-smoke:
	for seed in 1 2 3; do \
		CBS_CHAOS=1 CBS_CHAOS_SEED=$$seed \
		CBS_CHAOS_ENERGY=0.2 CBS_CHAOS_CKPT=0.1 CBS_CHAOS_TORN=0.1 \
		CBS_CHAOS_JOB=0.2 CBS_CHAOS_CACHE=0.2 \
		CBS_CHAOS_JOBLOG=0.2 CBS_CHAOS_ADOPT=0.2 \
		$(GO) test -count=2 ./internal/sweep ./internal/chaos \
			./internal/jobs ./internal/rescache || exit 1; \
	done

# serve-chaos is the crash-safety matrix: the kill-and-restart acceptance
# test and the job-store / SSE / fairness suites under -race, with the
# job-log and re-adoption fault sites (CBS_CHAOS_JOBLOG, CBS_CHAOS_ADOPT)
# armed across deterministic seeds. The suites arm explicit per-site rates
# in-test and read the seed from CBS_CHAOS_SEED, so each matrix entry
# faults a different subset of appends and adoptions; -count=2 defeats the
# test cache.
serve-chaos:
	for seed in 1 2 3; do \
		CBS_CHAOS=1 CBS_CHAOS_SEED=$$seed \
		CBS_CHAOS_JOBLOG=0.3 CBS_CHAOS_ADOPT=1 \
		$(GO) test -race -count=2 ./internal/jobs ./cmd/cbsd || exit 1; \
	done

# serve-smoke stands a real cbsd (random port, real Al(100) model on a
# small grid), POSTs a solve, polls it to completion, re-POSTs it to prove
# the cache hit, and diffs the physics against a golden file. Regenerate
# the golden with: go test -tags servesmoke ./cmd/cbsd -update
serve-smoke:
	$(GO) test -count=1 -tags servesmoke -run TestServeSmoke ./cmd/cbsd

# net-smoke exercises both message layers end to end under -race: the
# channel rank world and the SPMD solver on it in dist, and the fleet suite
# — the CRC-framed link (framing, size bound, heartbeat, horizon), lying and
# silent workers, and the real SIGKILL multi-process kill-and-reshard
# acceptance test.
net-smoke:
	$(GO) test -race -count=1 ./internal/comm ./internal/dist ./internal/fleet

# net-chaos is the network-fault matrix: the fleet kill-and-reshard
# acceptance with the two net chaos sites armed, net.reset (a link write
# closes the conn instead) and net.conn (a worker dial fails). The suite
# arms explicit per-site rates in-test and reads CBS_CHAOS_SEED, so each
# matrix entry faults a different pattern of writes and dials; -count=2
# defeats the test cache.
net-chaos:
	for seed in 1 2 3; do \
		CBS_CHAOS=1 CBS_CHAOS_SEED=$$seed \
		$(GO) test -race -count=2 ./internal/fleet || exit 1; \
	done

# negf-smoke is the transport subsystem's acceptance gate: the NEGF and
# tight-binding suites plus the end-to-end /v1/transport goldens (quantized
# plateaus, barrier tunneling, cache hit on resubmission, restart resume)
# and the backend-isolation pins, all under -race (the NEGF suite includes
# the post-processing fan-out: bit-identical points at GOMAXPROCS 1 and 4
# and at a share split to 1, and no goroutine left by a cancel); then the
# negf.selfenergy chaos site across a deterministic seed matrix. The chaos suite arms the
# explicit rate in-test and derives its injector seed from CBS_CHAOS_SEED,
# so each entry faults a different subset of energies; -count=2 defeats
# the test cache.
negf-smoke:
	$(GO) test -race -count=1 ./internal/negf ./internal/tb
	$(GO) test -race -count=1 -run 'TestTransport' ./cmd/cbsd
	$(GO) test -race -count=1 -run 'TestTB|TestBackend' .
	for seed in 1 2 3; do \
		CBS_CHAOS=1 CBS_CHAOS_SEED=$$seed CBS_CHAOS_NEGF=0.5 \
		$(GO) test -count=2 -run TestTransportChaosMatrix ./internal/negf || exit 1; \
	done

fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzLUSolve -fuzztime=30s ./internal/zlinalg
	$(GO) test -run=NONE -fuzz=FuzzLinkRead -fuzztime=30s ./internal/fleet
	$(GO) test -run=NONE -fuzz=FuzzFleetMsg -fuzztime=30s ./internal/fleet
	$(GO) test -run=NONE -fuzz=FuzzJournalParse -fuzztime=30s ./internal/sweep
	$(GO) test -run=NONE -fuzz=FuzzOpenStore -fuzztime=30s ./internal/jobs
	$(GO) test -run=NONE -fuzz=FuzzPostBodies -fuzztime=30s ./cmd/cbsd
	$(GO) test -run=NONE -fuzz=FuzzStencilRow -fuzztime=30s ./internal/soa
	$(GO) test -run=NONE -fuzz=FuzzLaneKernels -fuzztime=30s ./internal/soa
	$(GO) test -run=NONE -fuzz=FuzzCSRKernels -fuzztime=30s ./internal/soa
	$(GO) test -run=NONE -fuzz=FuzzRowKernels -fuzztime=30s ./internal/soa

# bench-smoke is the CI gate on the one benchmark (bench/, BENCHMARK.json):
# all five workloads at tiny sizes with a one-second timed part each, every
# operation gated against its correctness oracle. It checks code paths, not
# performance; `bash bench/run.sh --workload <name>` is the measured run.
bench-smoke:
	$(GO) run ./bench -workload all -smoke -seconds 1

# layer-bench-smoke runs the layer benchmarks — the P(z) block apply and
# the block solve under bench/'s qep.pz_block_ns_per_col and
# linsolve.ns_per_iter_col, one Krylov iteration's vector work, the
# Hankel SVD under core.extract_ms, one transport cell's LU factor and
# solve, the tight-binding plane applies under qep.portable_block_ns_per_col,
# and the NEGF wave matching and device transmission under
# negf.ms_per_energy — once each, on both arms of the kernel dispatch, so
# they cannot rot; the timings of a single iteration mean nothing.
layer-bench-smoke:
	$(GO) test -run=NONE -bench='ApplyBlockSoA|BlockBiCGDualSoA|KrylovStep' -benchtime=1x ./internal/linsolve
	CBS_NO_AVX2=1 $(GO) test -run=NONE -bench='ApplyBlockSoA|BlockBiCGDualSoA|KrylovStep' -benchtime=1x ./internal/linsolve
	$(GO) test -run=NONE -bench='JacobiSVD|LUSolve' -benchtime=1x ./internal/zlinalg
	CBS_NO_AVX2=1 $(GO) test -run=NONE -bench='JacobiSVD|LUSolve' -benchtime=1x ./internal/zlinalg
	$(GO) test -run=NONE -bench=TBPlanes -benchtime=1x ./internal/tb
	CBS_NO_AVX2=1 $(GO) test -run=NONE -bench=TBPlanes -benchtime=1x ./internal/tb
	$(GO) test -run=NONE -bench='Transmission|LeadSelfEnergies' -benchtime=1x ./internal/negf
	CBS_NO_AVX2=1 $(GO) test -run=NONE -bench='Transmission|LeadSelfEnergies' -benchtime=1x ./internal/negf
