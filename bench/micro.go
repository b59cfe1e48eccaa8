package main

// Direct micro-calls of the traced run: each times one exported function of
// one layer from outside, on the inputs the workload just used.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"cbs"
	"cbs/internal/contour"
	"cbs/internal/core"
	"cbs/internal/journal"
	"cbs/internal/linsolve"
	"cbs/internal/negf"
	"cbs/internal/qep"
	"cbs/internal/soa"
	"cbs/internal/ssm"
	"cbs/internal/sweep"
	"cbs/internal/zlinalg"
)

// repeatFor calls f until the budget is spent (at least three times) and
// returns the per-call times in seconds.
func repeatFor(budget time.Duration, f func()) sample {
	var s sample
	for t0 := time.Now(); len(s) < 3 || time.Since(t0) < budget; {
		t := time.Now()
		f()
		s.add(time.Since(t).Seconds())
	}
	return s
}

// randomBlock fills an n x nb interleaved block deterministically.
func randomBlock(n, nb int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]complex128, n*nb)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

// microKernels times the FD kernel layers on the Al model: the blocked H0
// stencil, the P(z) block apply, and one blocked dual BiCG solve, all on
// the 16-column block shape of the paper's options.
func microKernels(o *outcome, m *cbs.Model, e float64, opts cbs.Options, solveWall float64, matVecs int) error {
	const nb = 16
	op := m.Op
	n := op.N()
	t64 := op.SoA64()
	v, out := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
	soa.Pack(v, randomBlock(n, nb, opts.Seed))

	sp := o.rec.begin("hamiltonian.ApplyH0Block", o.root)
	h0 := repeatFor(o.microBudget, func() { t64.ApplyH0Block(v, out) })
	o.rec.end(sp)
	o.set("hamiltonian.h0_block_ns_per_col", h0.median()*1e9/nb)

	// Bytes one apply must move if every array is touched once: the block
	// in and out, the local potential, and each projector sample read for
	// the gather and again for the scatter. Cache misses are not in it.
	bytes := 2*n*nb*16 + n*8
	for _, p := range op.Projs {
		for _, s := range p.Supp {
			bytes += 2 * len(s.Val) * (8 + 4)
		}
	}
	o.set("hamiltonian.h0_block_bytes_computed", float64(bytes))
	o.note("hamiltonian.h0_block_bytes_computed", "computed from array sizes")

	ring, err := contour.NewRing(opts.LambdaMin, opts.Nint)
	if err != nil {
		return err
	}
	z := ring.Outer[0].Z
	q := qep.NewBackend(m.B, e)
	sp = o.rec.begin("qep.ApplyBlockSoA", o.root)
	pz := repeatFor(o.microBudget, func() { qep.ApplyBlockSoA(q, t64, z, v, out) })
	o.rec.end(sp)
	perCol := pz.median() * 1e9 / nb
	o.set("qep.pz_block_ns_per_col", perCol)
	if solveWall > 0 {
		o.set("qep.pz_time_share", float64(matVecs)*perCol*1e-9/solveWall)
	}

	apply := func(v, out *soa.Block[float64]) { qep.ApplyBlockSoA(q, t64, z, v, out) }
	applyD := func(v, out *soa.Block[float64]) { qep.ApplyDaggerBlockSoA(q, t64, z, v, out) }
	x, xd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
	ws := linsolve.NewWorkspaceSoA[float64](n, nb)
	groups := make([]*linsolve.GroupStop, nb)
	for c := range groups {
		groups[c] = linsolve.NewGroupStop(opts.Nint, false)
	}
	sp = o.rec.begin("linsolve.BlockBiCGDualSoA", o.root)
	t0 := time.Now()
	rs := linsolve.BlockBiCGDualSoA(apply, applyD, v, v, x, xd, linsolve.Options{Tol: opts.BiCGTol, MaxIter: opts.MaxIter}, groups, ws)
	wall := time.Since(t0)
	o.rec.end(sp)
	iters := 0
	for _, r := range rs {
		iters += r.Iterations
		if !r.Converged {
			return fmt.Errorf("direct BlockBiCGDualSoA: column did not converge (residual %.3g)", r.Residual)
		}
	}
	o.set("linsolve.point_block_ms", millis(wall))
	o.set("linsolve.ns_per_iter_col", float64(wall.Nanoseconds())/float64(max(1, iters)))
	return nil
}

// measureAllocs runs f once and records its MemStats deltas.
func measureAllocs(o *outcome, f func() error) error {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	o.set("core.allocs_per_solve", float64(b.Mallocs-a.Mallocs))
	o.set("core.alloc_mb_per_solve", float64(b.TotalAlloc-a.TotalAlloc)/1e6)
	return err
}

// microExtract times ssm.ExtractFromMoments alone. The moments a solve
// accumulates are not exported, so the call gets exact moments of the same
// shape and rank, S_k = Psi diag(lambda^k) C, built from every eigenpair the
// solve extracted; the Hankel SVD, the small eigenproblem and the vector
// recovery then cost what they cost inside the solve.
func microExtract(o *outcome, res *core.Result, opts cbs.Options) error {
	pairs := res.AllPairs
	if len(pairs) == 0 {
		return nil
	}
	n, nrh := len(pairs[0].Psi), res.Expanded
	rng := rand.New(rand.NewSource(opts.Seed))
	coef := zlinalg.NewMatrix(len(pairs), nrh)
	for i := range coef.Data {
		coef.Data[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	v := zlinalg.NewMatrix(n, nrh)
	for i := range v.Data {
		v.Data[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	moments := make([]*zlinalg.Matrix, 2*opts.Nmm)
	for k := range moments {
		mk := zlinalg.NewMatrix(n, nrh)
		for j, p := range pairs {
			lk := complex(1, 0)
			for i := 0; i < k; i++ {
				lk *= p.Lambda
			}
			for r := 0; r < n; r++ {
				w := lk * p.Psi[r]
				row := mk.Data[r*nrh : (r+1)*nrh]
				for c := range row {
					row[c] += w * coef.Data[j*nrh+c]
				}
			}
		}
		moments[k] = mk
	}
	var err error
	sp := o.rec.begin("ssm.ExtractFromMoments", o.root)
	ts := repeatFor(o.microBudget, func() {
		if _, e := ssm.ExtractFromMoments(moments, v, ssm.Options{Nmm: opts.Nmm, Delta: opts.Delta}); e != nil {
			err = e
		}
	})
	o.rec.end(sp)
	o.set("ssm.extract_ms", ts.median()*1e3)
	return err
}

// microJournal times journal.File.Append, fsync included, on the median-
// sized record of the results the workload produced.
func microJournal(o *outcome, path string, results []*core.Result) error {
	var payloads [][]byte
	for i, res := range results {
		rec := sweep.RecordOf(sweep.EnergyResult{Index: i, Energy: res.Energy, Status: sweep.StatusOK, Attempts: 1, Result: res})
		data, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		payloads = append(payloads, data)
	}
	if len(payloads) == 0 {
		return nil
	}
	var sizes sample
	for _, p := range payloads {
		sizes.add(float64(len(p)))
	}
	med := sizes.median()
	payload := payloads[0]
	for _, p := range payloads {
		if math.Abs(float64(len(p))-med) < math.Abs(float64(len(payload))-med) {
			payload = p
		}
	}
	f, err := journal.Create(path, []byte(`{"magic":"cbs-bench-journal"}`))
	if err != nil {
		return err
	}
	defer os.Remove(path)
	sp := o.rec.begin("journal.File.Append", o.root)
	ts := repeatFor(o.microBudget, func() {
		if e := f.Append(payload); e != nil {
			err = e
		}
	})
	o.rec.end(sp)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	o.set("journal.append_ms_p50", ts.median()*1e3)
	o.set("journal.record_kb", float64(len(payload))/1e3)
	return err
}

// microNEGF times the per-energy NEGF post-processing on solved results:
// channel classification, lead self-energies and the device transmission.
func microNEGF(o *outcome, m *cbs.Model, results []*core.Result, dev negf.Device) error {
	var ts sample
	sp := o.rec.begin("negf.Classify+LeadSelfEnergies+Transmission", o.root)
	defer o.rec.end(sp)
	for _, res := range results {
		t0 := time.Now()
		negf.Classify(m.B, res, 0)
		leads, err := negf.LeadSelfEnergies(m.B, res, negf.Options{})
		if err != nil {
			return err
		}
		if _, err := negf.Transmission(m.B, res, dev, leads, negf.Options{}); err != nil {
			return err
		}
		ts.add(time.Since(t0).Seconds())
	}
	o.set("negf.ms_per_energy", ts.sum()/float64(max(1, len(ts)))*1e3)
	return nil
}

// microPortable times the P(z) block apply through operator.Backend, the
// path every non-FD backend takes.
func microPortable(o *outcome, m *cbs.Model, e float64, opts cbs.Options) error {
	nb := opts.Nrh
	n := m.N()
	ring, err := contour.NewRing(opts.LambdaMin, opts.Nint)
	if err != nil {
		return err
	}
	q := qep.NewBackend(m.B, e)
	v, out := randomBlock(n, nb, opts.Seed), make([]complex128, n*nb)
	sp := o.rec.begin("qep.Problem.ApplyBlock", o.root)
	// One apply on the slab takes microseconds: time batches of 100.
	ts := repeatFor(o.microBudget, func() {
		for i := 0; i < 100; i++ {
			q.ApplyBlock(ring.Outer[0].Z, v, out, nb)
		}
	})
	o.rec.end(sp)
	o.set("qep.portable_block_ns_per_col", ts.median()*1e9/100/float64(nb))
	return nil
}
