// transport_test.go is the end-to-end acceptance of POST /v1/transport: a
// real tight-binding chain model behind the full HTTP stack — submit,
// poll, and golden-check the physics (quantized plateaus, sub-unity
// tunneling), plus the cache criterion: the same transport request served
// twice costs no second round of solves.
package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"cbs"
	"cbs/internal/core"
	"cbs/internal/negf"
	"cbs/internal/sweep"
	"cbs/internal/units"
)

// newTBServer stands a server on a real nc-site tight-binding chain
// (eps=0, t=-1, a=nc bohr): cheap enough for CI, analytic enough to
// golden-check.
func newTBServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	model, err := cbs.NewTBChain(cbs.TBChainConfig{Sites: 4, Onsite: 0, Hopping: -1, A: 4})
	if err != nil {
		t.Fatal(err)
	}
	ef, err := model.FermiLevel(0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serverConfig{
		backend:      modelBackend(model, ef),
		workers:      2,
		queueDepth:   32,
		cacheEntries: 64,
		sweepWorkers: 2,
		defaults:     core.DefaultOptions(),
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

// evList formats hartree energies as an energies_ev JSON array (the chain
// model's EF is 0, so eV values are plain conversions).
func evList(es ...float64) string {
	out := "["
	for i, e := range es {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%.17g", units.HartreeToEV(e))
	}
	return out + "]"
}

// TestTransportEndToEndQuantizedAndCached is the PR's e2e acceptance: a
// uniform chain transmits exactly its integer open-channel count at every
// in-band energy, an identical resubmission is served from the result
// cache (no new solves through the full HTTP stack), and a gap energy
// transmits ~0 with a positive reported decay.
func TestTransportEndToEndQuantizedAndCached(t *testing.T) {
	s, ts := newTBServer(t)

	// -0.5, 0 and 0.5 hartree are mid-band (|E| < 2|t|; 0 is the
	// band-folding degeneracy, resolved by the velocity operator); 2.02 is
	// in the gap with its evanescent branch still inside the annulus.
	body := fmt.Sprintf(`{"energies_ev": %s, "cells": 3, "bias_hartree": [0, 0.2],
		"options": {"nrh": 2, "nmm": 2}}`, evList(-0.5, 0, 0.5, 2.02))

	var sub submitResponse
	if resp := postJSON(t, ts.URL+"/v1/transport", body, &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/transport: HTTP %d", resp.StatusCode)
	}
	j := waitJob(t, ts.URL, sub.ID)
	if j.State != "done" {
		t.Fatalf("job state %q (err %q), want done", j.State, j.Error)
	}
	if j.Kind != "transport" {
		t.Fatalf("job kind %q, want transport", j.Kind)
	}
	if j.Transport == nil || len(j.Transport.Points) != 4 {
		t.Fatalf("transport payload missing or wrong length: %+v", j.Transport)
	}
	for _, p := range j.Transport.Points {
		if p.Status != "ok" {
			t.Fatalf("point %+v not ok", p)
		}
		e := units.EVToHartree(p.EnergyEV)
		switch {
		case e < 2: // in-band: one open channel, unit transmission
			if p.NOpen != 1 || !near(p.T, 1, 1e-6) {
				t.Errorf("E=%.2f: T=%g n_open=%d, want quantized 1", e, p.T, p.NOpen)
			}
			if p.Beta != 0 {
				t.Errorf("E=%.2f: beta=%g, want 0 (propagating)", e, p.Beta)
			}
		default: // gap: closed with a positive decay constant
			if p.NOpen != 0 || p.T > 1e-6 {
				t.Errorf("E=%.2f: T=%g n_open=%d, want closed", e, p.T, p.NOpen)
			}
			if p.Beta <= 0 {
				t.Errorf("E=%.2f: beta=%g, want > 0 (evanescent)", e, p.Beta)
			}
		}
	}
	if len(j.Transport.IV) != 2 || j.Transport.IV[0].I != 0 || j.Transport.IV[1].I <= 0 {
		t.Errorf("IV = %+v, want zero-bias 0 and positive current at 0.2 hartree", j.Transport.IV)
	}

	// Criterion: the identical request again is one solve through the full
	// stack — i.e. zero NEW solves; every energy hits the result cache.
	solved := s.solveCount.Load()
	if solved == 0 {
		t.Fatal("first transport request recorded no solves")
	}
	var sub2 submitResponse
	postJSON(t, ts.URL+"/v1/transport", body, &sub2)
	if sub2.Fingerprint != sub.Fingerprint {
		t.Fatalf("identical transport requests got fingerprints %s vs %s", sub.Fingerprint, sub2.Fingerprint)
	}
	j2 := waitJob(t, ts.URL, sub2.ID)
	if j2.State != "done" {
		t.Fatalf("resubmitted job state %q, want done", j2.State)
	}
	if got := s.solveCount.Load(); got != solved {
		t.Errorf("resubmission re-solved: %d -> %d backend solves", solved, got)
	}
	if cs := s.cache.Stats(); cs.Hits < 4 {
		t.Errorf("cache hits = %d, want >= 4 (one per resubmitted energy)", cs.Hits)
	}
}

// TestTransportEndToEndBarrierTunneling: a 2-cell barrier inside the
// device attenuates the open channel below 1 — tunneling, not an open or
// closed integer — through the full HTTP stack.
func TestTransportEndToEndBarrierTunneling(t *testing.T) {
	_, ts := newTBServer(t)

	body := fmt.Sprintf(`{"energies_ev": %s, "cells": 4, "barrier_hartree": [0, 3, 3, 0],
		"options": {"nrh": 2, "nmm": 2}}`, evList(0.3))
	var sub submitResponse
	if resp := postJSON(t, ts.URL+"/v1/transport", body, &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/transport: HTTP %d", resp.StatusCode)
	}
	j := waitJob(t, ts.URL, sub.ID)
	if j.State != "done" {
		t.Fatalf("job state %q (err %q), want done", j.State, j.Error)
	}
	p := j.Transport.Points[0]
	if p.Status != "ok" || p.NOpen != 1 {
		t.Fatalf("point %+v, want ok with one open lead channel", p)
	}
	if p.T <= 0 || p.T >= 0.5 {
		t.Errorf("barrier T = %g, want sub-unity tunneling (0, 0.5)", p.T)
	}
}

// TestTransportRequestValidation: a barrier that does not match the device
// length is a 400 at submit time, and a server without a transport backend
// refuses rather than panics.
func TestTransportRequestValidation(t *testing.T) {
	_, ts := newTBServer(t)
	resp := postJSON(t, ts.URL+"/v1/transport",
		`{"energies_ev": [0], "cells": 2, "barrier_hartree": [1]}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched barrier: HTTP %d, want 400", resp.StatusCode)
	}

	fb := &fakeBackend{}
	_, ts2 := newTestServer(t, fb, nil) // fake backend has no transport fn
	resp = postJSON(t, ts2.URL+"/v1/transport", `{"energies_ev": [0], "cells": 1}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no transport backend: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestUnknownRequestFieldRejected: every POST endpoint answers 400 naming
// the field when a body carries one the request schema does not declare — a
// retired option (precision, auto_expand) or a misspelt one must not
// silently run under the defaults — and submits nothing.
func TestUnknownRequestFieldRejected(t *testing.T) {
	s, ts := newTBServer(t)
	for _, tc := range []struct{ path, body, field string }{
		{"/v1/solve", `{"energy_ev": 0.25, "options": {"precision": "mixed"}}`, "precision"},
		{"/v1/sweep", `{"energies_ev": [0], "options": {"kernels": "aos"}}`, "kernels"},
		{"/v1/bands", `{"energies_ev": [0], "kmax": 1}`, "kmax"},
		{"/v1/transport", `{"energies_ev": [0], "cells": 2, "options": {"precision": "mixed"}}`, "precision"},
		{"/v1/sweep", `{"energies_ev": [0], "options": {"auto_expand": true}}`, "auto_expand"},
	} {
		var body errorResponse
		resp := postJSON(t, ts.URL+tc.path, tc.body, &body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, strconv.Quote(tc.field)) {
			t.Errorf("%s %s: HTTP %d %q, want 400 naming %q", tc.path, tc.body, resp.StatusCode, body.Error, tc.field)
		}
	}
	if n := s.mgr.Metrics().Submitted; n != 0 {
		t.Errorf("%d jobs were submitted from rejected bodies", n)
	}
}

// TestRequestBoundsRejected: no POST body can make the server allocate
// without limit — a window or list beyond maxEnergies and a body beyond
// maxBodyBytes are each refused with a 4xx naming the limit, on every
// route, and submit nothing.
func TestRequestBoundsRejected(t *testing.T) {
	s, ts := newTBServer(t)
	hugeNE := `{"emin_ev": 0, "emax_ev": 1, "ne": 2000000000}`
	longList := `{"energies_ev": [0` + strings.Repeat(",0", maxEnergies) + `]}`
	bigBody := `{"energies_ev": [` + strings.Repeat("0.000000000000,", maxBodyBytes/15) + `0]}`
	energies, bytes := strconv.Itoa(maxEnergies), strconv.Itoa(maxBodyBytes)
	for _, tc := range []struct {
		path, body string
		code       int
		limit      string
	}{
		{"/v1/sweep", hugeNE, http.StatusBadRequest, energies},
		{"/v1/bands", hugeNE, http.StatusBadRequest, energies},
		{"/v1/transport", hugeNE, http.StatusBadRequest, energies},
		{"/v1/sweep", longList, http.StatusBadRequest, energies},
		{"/v1/bands", longList, http.StatusBadRequest, energies},
		{"/v1/transport", longList, http.StatusBadRequest, energies},
		{"/v1/solve", bigBody, http.StatusRequestEntityTooLarge, bytes},
		{"/v1/sweep", bigBody, http.StatusRequestEntityTooLarge, bytes},
		{"/v1/bands", bigBody, http.StatusRequestEntityTooLarge, bytes},
		{"/v1/transport", bigBody, http.StatusRequestEntityTooLarge, bytes},
	} {
		var body errorResponse
		resp := postJSON(t, ts.URL+tc.path, tc.body, &body)
		if resp.StatusCode != tc.code || !strings.Contains(body.Error, tc.limit) {
			t.Errorf("%s (%d-byte body): HTTP %d %q, want %d naming the limit %s",
				tc.path, len(tc.body), resp.StatusCode, body.Error, tc.code, tc.limit)
		}
	}
	if n := s.mgr.Metrics().Submitted; n != 0 {
		t.Errorf("%d jobs were submitted from rejected bodies", n)
	}
}

// TestTransportJobRestartResume: a transport job killed mid-flight is
// re-adopted from the job log on restart and finishes with the same
// fingerprint-keyed identity (the journaled spec rebuilds the NEGF task).
func TestTransportJobRestartResume(t *testing.T) {
	dir := t.TempDir()
	model, err := cbs.NewTBChain(cbs.TBChainConfig{Sites: 4, Onsite: 0, Hopping: -1, A: 4})
	if err != nil {
		t.Fatal(err)
	}
	mkServer := func() (*server, *httptest.Server) {
		cfg := serverConfig{
			backend:       modelBackend(model, 0),
			workers:       2,
			queueDepth:    32,
			cacheEntries:  64,
			sweepWorkers:  1,
			checkpointDir: dir,
			defaults:      core.DefaultOptions(),
		}
		s, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		return s, ts
	}
	s1, ts1 := mkServer()
	body := fmt.Sprintf(`{"energies_ev": %s, "cells": 2, "options": {"nrh": 2, "nmm": 2}}`,
		evList(0.4, -0.6))
	var sub submitResponse
	postJSON(t, ts1.URL+"/v1/transport", body, &sub)
	if waitJob(t, ts1.URL, sub.ID).State != "done" {
		t.Fatal("first run did not finish")
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s1.Drain(ctx) //nolint:errcheck // teardown of the first incarnation

	// Restart over the same job log: the finished transport job replays as
	// terminal, and a fresh identical submission resumes from the sweep
	// journal (restored energies, no fresh solve needed to agree).
	s2, ts2 := mkServer()
	defer ts2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Drain(ctx) //nolint:errcheck // test teardown
	}()
	var sub2 submitResponse
	postJSON(t, ts2.URL+"/v1/transport", body, &sub2)
	if sub2.Fingerprint != sub.Fingerprint {
		t.Fatalf("fingerprint drifted across restart: %s vs %s", sub.Fingerprint, sub2.Fingerprint)
	}
	j := waitJob(t, ts2.URL, sub2.ID)
	if j.State != "done" {
		t.Fatalf("resumed job state %q (err %q), want done", j.State, j.Error)
	}
	if got := s2.solveCount.Load(); got != 0 {
		t.Errorf("restarted server re-solved %d energies, want 0 (journal restore)", got)
	}
	for _, p := range j.Transport.Points {
		if p.Status != "ok" || !near(p.T, 1, 1e-6) {
			t.Errorf("restored point %+v, want ok with T=1", p)
		}
	}
}

// near reports |a-b| <= tol.
func near(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// Compile-time check that the test file and server agree on the transport
// backend signature (catches drift between modelBackend and serverConfig).
var _ func(ctx context.Context, solve sweep.SolveFunc, spec negf.Spec, opts core.Options, cfg sweep.Config) (*negf.Curve, error) = backend{}.transport
