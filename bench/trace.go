package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (nothing inside the program is instrumented). Start and End are
// nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Run    string `json:"run"` // shared by every span of one benchmark run
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced run pays one nil check per layer call.
type recorder struct {
	run string
	t0  time.Time
	mu  sync.Mutex
	all []span
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, t0: time.Now(), all: make([]span, 0, 4096)}
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.all)
	r.all = append(r.all, span{ID: id, Parent: parent, Name: name, Run: r.run, Start: now, End: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.all[id].End = now
	r.mu.Unlock()
}

// spans returns a copy of everything recorded so far.
func (r *recorder) spans() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.all...)
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.all)
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover. Children may overlap (parallel workers), so the
// covered part is the union of their intervals clipped to the parent.
func selfTime(spans []span, id int) time.Duration {
	p := spans[id]
	type iv struct{ a, b int64 }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	var covered, edge int64 = 0, p.Start
	for _, k := range kids {
		if k.b <= edge {
			continue
		}
		covered += k.b - max(k.a, edge)
		edge = k.b
	}
	return p.dur() - time.Duration(covered)
}

// spanCost calibrates what recording one span costs, for the computed
// trace.overhead_frac.
func spanCost() time.Duration {
	const n = 20000
	r := newRecorder("calibrate")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("x", -1))
	}
	return time.Since(t0) / n
}

func writeSpans(path string, spans []span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
