package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"cbs/internal/soa"
)

const docSchema = "cbs-bench/v2"

// host describes where a result was measured. Two documents are comparable
// only when every field but GitSHA agrees.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	AVX2       bool   `json:"avx2"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitSHA     string `json:"git_sha"`
}

func thisHost() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		AVX2:       soa.HasAVX2,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitSHA:     gitSHA(),
	}
}

// gitSHA is best effort: the benchmark also runs from exported trees that
// are not git repositories.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sameMachine reports whether two descriptors may be compared.
func (h host) sameMachine(o host) bool {
	h.GitSHA, o.GitSHA = "", ""
	return h == o
}

// value is one measured metric. N is the number of samples behind a timing
// (0 for counts and derived values); Note carries the labels the issue asks
// for ("computed", "unresolved", the percentile actually reported).
type value struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// row is one run of one workload.
type row struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Smoke     bool     `json:"smoke,omitempty"`
	Clients   int      `json:"clients,omitempty"` // load-generating connections actually used
	Workers   int      `json:"workers,omitempty"` // solver workers actually used
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // first few, for diagnosis
	Metrics   []value  `json:"metrics"`
}

func (r *row) metric(name string) (value, bool) {
	for _, v := range r.Metrics {
		if v.Name == name {
			return v, true
		}
	}
	return value{}, false
}

// failedFrac is the issue's failed_frac; BENCHMARK.json carries it as the
// contract's attempted/failed pair because an end-to-end metric may not be 0.
func (r *row) failedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// document is what -out writes and -compare reads.
type document struct {
	Schema string `json:"schema"`
	Host   host   `json:"host"`
	Rows   []row  `json:"rows"`
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != docSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, docSchema)
	}
	return &d, nil
}

func (d *document) write(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// appendRows adds rows to the document at path, creating it if absent. Rows
// measured on another machine are refused rather than mixed in.
func appendRows(path string, h host, rows []row) error {
	d, err := readDocument(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		d = &document{Schema: docSchema, Host: h}
	case err != nil:
		return err
	case !d.Host.sameMachine(h) || d.Host.GitSHA != h.GitSHA:
		return fmt.Errorf("%s was measured on a different host or commit (%+v, now %+v)", path, d.Host, h)
	}
	d.Rows = append(d.Rows, rows...)
	return d.write(path)
}

// printRow prints every metric by name with its unit, then failed_frac with
// its sample counts.
func printRow(w io.Writer, r *row) {
	mode := "end-to-end"
	if r.Traced {
		mode = "traced, per-layer"
	}
	fmt.Fprintf(w, "%s  seed %d  (%s; clients %d, workers %d)\n", r.Workload, r.Seed, mode, r.Clients, r.Workers)
	for _, v := range r.Metrics {
		fmt.Fprintf(w, "  %-36s %14.6g %-6s", v.Name, v.Value, v.Unit)
		if v.N > 0 {
			fmt.Fprintf(w, " n=%d min %.6g max %.6g", v.N, v.Min, v.Max)
		}
		if v.Note != "" {
			fmt.Fprintf(w, " [%s]", v.Note)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-36s %14.6g %-6s attempted %d failed %d\n", "failed_frac", r.failedFrac(), "ratio", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// contractLine is the last line of standard output the BENCHMARK.json
// contract requires: correct, attempted, failed, and every metric of the
// run's kind with its unit.
func contractLine(r *row) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, map[string]mv{}}
	for _, v := range r.Metrics {
		out.Metrics[v.Name] = mv{v.Value, v.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain floats and strings cannot fail to marshal
	}
	return string(data)
}
