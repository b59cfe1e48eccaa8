package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The percentile rule: report the highest percentile that still has ten
// samples beyond it, capped at the one the metric is named after.
func TestTailLevel(t *testing.T) {
	for _, tc := range []struct {
		n    int
		cap  float64
		want float64
	}{
		{3, 0.90, 0.5},       // nothing above the median qualifies
		{19, 0.90, 0.5},      //
		{20, 0.90, 0.5},      // 10 of 20 beyond rank 10: the median itself
		{48, 0.90, 38. / 48}, // three sweep repetitions: p79
		{100, 0.90, 0.90},    // exactly ten beyond p90
		{173, 0.90, 0.90},    // capped at the named percentile
		{173, 0.99, 163. / 173},
		{5000, 0.99, 0.99},
	} {
		if got := tailLevel(tc.n, tc.cap); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailLevel(%d, %g) = %g, want %g", tc.n, tc.cap, got, tc.want)
		}
	}
	// The value reported at that level really has ten samples above it.
	var s sample
	for i := 1; i <= 48; i++ {
		s.add(float64(i))
	}
	if got := s.tail(0.90); got != 38 {
		t.Errorf("tail of 1..48 = %g, want 38 (ten samples beyond)", got)
	}
	if got := s.median(); got != 24.5 {
		t.Errorf("median of 1..48 = %g, want 24.5", got)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4),
// which the benchmark contract uses: for 1..10 the cut points are 2.75, 5.5
// and 8.25.
func TestQuartileSpread(t *testing.T) {
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
}

// A layer's self time is its span minus what its children cover; children
// that overlap (parallel workers) or stick out of the parent count once and
// only inside it.
func TestSelfTimeNestedSpans(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{ID: 0, Parent: -1, Name: "sweep.Run", Start: ms(0), End: ms(100)},
		{ID: 1, Parent: 0, Name: "core.SolveContext", Start: ms(10), End: ms(40)},
		{ID: 2, Parent: 0, Name: "core.SolveContext", Start: ms(30), End: ms(60)},  // overlaps 1
		{ID: 3, Parent: 0, Name: "core.SolveContext", Start: ms(90), End: ms(120)}, // sticks out
		{ID: 4, Parent: 1, Name: "linsolve", Start: ms(10), End: ms(35)},           // grandchild: not the parent's
	}
	if got, want := selfTime(spans, 0), 40*time.Millisecond; got != want {
		t.Errorf("self time of the sweep = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 1), 5*time.Millisecond; got != want {
		t.Errorf("self time of the first solve = %v, want %v", got, want)
	}
	if got, want := selfTime(spans, 4), 25*time.Millisecond; got != want {
		t.Errorf("self time of a leaf = %v, want %v", got, want)
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	off.end(off.begin("x", -1)) // the untraced run: a nil recorder is inert
	if off.count() != 0 || off.spans() != nil {
		t.Error("nil recorder recorded something")
	}
	r := newRecorder("run-1")
	root := r.begin("root", -1)
	kid := r.begin("kid", root)
	r.end(kid)
	r.end(root)
	sp := r.spans()
	if len(sp) != 2 || sp[1].Parent != root || sp[0].Run != "run-1" || sp[1].Run != "run-1" {
		t.Fatalf("spans = %+v", sp)
	}
	if sp[0].Start > sp[1].Start || sp[1].End > sp[0].End {
		t.Errorf("child not nested in parent: %+v", sp)
	}
}

// Same seed, byte-identical lists; disjoint client pools; repeats exactly
// 40 % of the solves and always of a recently completed energy.
func TestRequestLists(t *testing.T) {
	const clients, blocks = 2, 3
	a, _ := json.Marshal(requestLists(7, clients, blocks))
	b, _ := json.Marshal(requestLists(7, clients, blocks))
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different request lists")
	}
	if c, _ := json.Marshal(requestLists(8, clients, blocks)); bytes.Equal(a, c) {
		t.Fatal("different seeds gave the same request lists")
	}

	lists := requestLists(7, clients, blocks)
	owner := map[float64]int{}
	edges := slabEdges()
	for c, list := range lists {
		if len(list) != blocks*reqBlock {
			t.Fatalf("client %d has %d requests, want %d", c, len(list), blocks*reqBlock)
		}
		solves, repeats, multi := 0, 0, map[string]int{}
		var recent []float64
		fresh := map[float64]bool{}
		for i, r := range list {
			for _, e := range r.Energies {
				if e < tbEmin || e > tbEmax || !clearOfEdges(e, edges) {
					t.Fatalf("client %d request %d: energy %g outside the window or on a band edge", c, i, e)
				}
				if prev, ok := owner[e]; ok && prev != c {
					t.Fatalf("energy %g is in the pools of clients %d and %d", e, prev, c)
				}
				owner[e] = c
			}
			switch {
			case r.Kind == kindSolve && r.Repeat:
				solves, repeats = solves+1, repeats+1
				found := false
				for _, e := range recent {
					found = found || e == r.Energies[0]
				}
				if !found {
					t.Fatalf("client %d request %d repeats an energy outside its %d most recent", c, i, repeatWindow)
				}
			case r.Kind == kindSolve:
				solves++
				if fresh[r.Energies[0]] {
					t.Fatalf("client %d request %d: a fresh solve reuses energy %g", c, i, r.Energies[0])
				}
				fresh[r.Energies[0]] = true
				recent = append(recent, r.Energies[0])
				if len(recent) > repeatWindow {
					recent = recent[1:]
				}
			default:
				multi[r.Kind]++
				if len(r.Energies) != multiEnergies {
					t.Fatalf("client %d request %d: %s job with %d energies", c, i, r.Kind, len(r.Energies))
				}
				for _, e := range r.Energies {
					if fresh[e] {
						t.Fatalf("client %d request %d: multi-energy job reuses energy %g", c, i, e)
					}
					fresh[e] = true
				}
			}
		}
		if solves != blocks*90 || repeats*10 != solves*4 {
			t.Errorf("client %d: %d repeats of %d solves, want exactly 40 %% of %d", c, repeats, solves, blocks*90)
		}
		if multi[kindSweep]+multi[kindBands]+multi[kindTransport] != blocks*blockMulti {
			t.Errorf("client %d: multi-energy jobs %v, want %d in all", c, multi, blocks*blockMulti)
		}
		for _, k := range []string{kindSweep, kindBands, kindTransport} {
			if multi[k] != blocks*blockMulti/3 {
				t.Errorf("client %d: %d %s jobs, want an even split of %d", c, multi[k], k, blocks*blockMulti)
			}
		}
		hits, misses := predictedLookups(list)
		if hits != repeats || misses != solves-repeats+multi[kindTransport]*multiEnergies {
			t.Errorf("client %d: predicted %d hits / %d misses", c, hits, misses)
		}
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.json")
	h := thisHost()
	rows := []row{{
		Workload: "solve_al", Seed: 3, Seconds: 15, Clients: 1, Workers: 1, Attempted: 4, Failed: 1,
		Failures: []string{"solve 2: residual"},
		Metrics: []value{
			{Name: "solve_s", Unit: "s", Value: 5.0625, N: 4, Min: 5.03, Max: 5.39},
			{Name: "dist.ndm2_solve_s", Unit: "s", Value: 2.5, Note: "unresolved: nproc < 4"},
		},
	}}
	if err := appendRows(path, h, rows); err != nil {
		t.Fatal(err)
	}
	if err := appendRows(path, h, rows); err != nil {
		t.Fatal(err)
	}
	d, err := readDocument(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Schema != docSchema || d.Host != h || len(d.Rows) != 2 || !reflect.DeepEqual(d.Rows[0], rows[0]) || !reflect.DeepEqual(d.Rows[1], rows[0]) {
		t.Errorf("round trip changed the document: %+v", d)
	}
	other := h
	other.NProc++
	if err := appendRows(path, other, rows); err == nil {
		t.Error("rows from a different host were mixed into the document")
	}
	if err := os.WriteFile(path, []byte(`{"schema":"cbs-bench/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readDocument(path); err == nil {
		t.Error("a document of another schema was accepted")
	}

	// The contract line carries exactly correct/attempted/failed/metrics.
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(contractLine(&rows[0])), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || string(line["correct"]) != "false" || string(line["attempted"]) != "4" || string(line["failed"]) != "1" {
		t.Errorf("contract line = %s", contractLine(&rows[0]))
	}
}

func TestJudge(t *testing.T) {
	lower := &metricDef{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.07}
	higher := &metricDef{Name: "energies_per_s", Unit: "1/s", Better: "higher", Bound: 0.07}
	steady := []float64{5.00, 5.02, 5.01, 4.99, 5.03}
	for _, tc := range []struct {
		name           string
		def            *metricDef
		parent, change []float64
		print          bool
		regression     bool
		word           string
	}{
		{"within bound prints nothing", lower, steady, []float64{5.1, 5.12, 5.08, 5.11, 5.1}, false, false, ""},
		{"slower beyond bound", lower, steady, []float64{5.6, 5.62, 5.58, 5.61, 5.6}, true, true, "REGRESSION"},
		{"faster beyond bound", lower, steady, []float64{4.0, 4.02, 4.01, 3.99, 4.0}, true, false, "better"},
		{"throughput drop is a regression", higher, steady, []float64{4.5, 4.52, 4.48, 4.51, 4.5}, true, true, "REGRESSION"},
		{"noisy runs are unresolved", lower, []float64{4, 5, 6, 5, 4.5}, []float64{4.2, 5.5, 6.1, 4.8, 5}, true, false, "unresolved"},
		{"noisy but better in every run", lower, []float64{4, 5, 6, 5, 4.5}, []float64{2, 3, 3.5, 2.5, 3}, true, false, "better in every run"},
	} {
		v, ok := judge(tc.def, tc.parent, tc.change)
		if ok != tc.print || v.regression != tc.regression || !strings.Contains(v.text, tc.word) {
			t.Errorf("%s: printed=%v regression=%v text=%q", tc.name, ok, v.regression, v.text)
		}
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	h := thisHost()
	rows := []row{{Workload: "solve_al", Seed: 1, Seconds: 15, Attempted: 3, Metrics: []value{{Name: "solve_s", Unit: "s", Value: 5}}}}
	other := h
	other.GOMAXPROCS++
	if err := appendRows(a, h, rows); err != nil {
		t.Fatal(err)
	}
	if err := appendRows(b, other, rows); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if status := compareFiles(&out, a, b); status != 2 {
		t.Errorf("comparing documents from different hosts returned %d, want refusal (2)", status)
	}
	if status := compareFiles(&out, a, a); status != 0 {
		t.Errorf("comparing a document with itself returned %d:\n%s", status, out.String())
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue in metrics.go")

// benchmarkJSON renders the declaration from the catalogue.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	decl := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 15}
	for _, w := range workloads {
		decl.Workloads = append(decl.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		decl.EndToEnd = append(decl.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		decl.PerLayer = append(decl.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(decl, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}

// BENCHMARK.json is the contract the driver reads; the catalogue in
// metrics.go is what the program prints. They must say the same thing
// (go test ./bench -run BenchmarkJSON -update rewrites the file).
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", benchmarkJSON(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", decl.Paths)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, implemented %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in the catalogue", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range decl.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: declared %+v, catalogue %+v", i, m, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in the catalogue", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range decl.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: declared %+v, catalogue %+v", i, m, d)
		}
	}
}

func TestReadmeNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !bytes.Contains(data, []byte("`"+d.Name+"`")) {
				t.Errorf("README.md does not mention %s", d.Name)
			}
		}
	}
}

func TestReferencesCommitted(t *testing.T) {
	if refs.EAl == 0 || !strings.Contains(refs.EAlProvenance, "FermiLevel(4)") {
		t.Errorf("E_AL = %g with provenance %q", refs.EAl, refs.EAlProvenance)
	}
	full := runConfig{seed: 1}
	if len(solveRef(full)) == 0 || len(refs.SweepAl) != len(sweepEnergiesAl(full)) {
		t.Errorf("seed-1 references: %d solve lambdas, %d sweep energies", len(refs.SolveAl), len(refs.SweepAl))
	}
	if solveRef(runConfig{seed: 2}) != nil || sweepRef(runConfig{seed: 1, smoke: true}, 0) != nil {
		t.Error("references offered for inputs they were not computed from")
	}
}

// TestSmoke runs all five workloads at smoke size, untraced and traced: every
// metric of the run's kind is reported, no operation fails, and the whole
// thing takes seconds. It checks code paths, not performance.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	cfg := runConfig{seed: 1, seconds: 0.3, smoke: true, workdir: dir, cbsd: filepath.Join(dir, "cbsd")}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			cfg.traced = traced
			r, spans, err := runWorkload(ctx, w, cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed: %v", w.name, traced, r.Failed, r.Attempted, r.Failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(r.Metrics) != len(want) {
				t.Fatalf("%s (traced %v): %d metrics, want %d", w.name, traced, len(r.Metrics), len(want))
			}
			for k, v := range r.Metrics {
				if v.Name != want[k].Name || v.Unit != want[k].Unit {
					t.Errorf("%s: metric %d is %s [%s], want %s [%s]", w.name, k, v.Name, v.Unit, want[k].Name, want[k].Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g", w.name, v.Name, v.Value)
				}
			}
			if traced != (len(spans) > 0) {
				t.Errorf("%s (traced %v): %d spans recorded", w.name, traced, len(spans))
			}
		}
	}
}
