package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cbs/internal/core"
	"cbs/internal/negf"
	"cbs/internal/sweep"
)

// postRoutes are the four POST endpoints that decode a request body.
var postRoutes = []string{"/v1/solve", "/v1/sweep", "/v1/bands", "/v1/transport"}

// FuzzPostBodies sends arbitrary bodies to the four POST routes of a server
// on a fake backend (transport included). Every answer must be 202, 400 or
// 413, and a rejected body must submit no job. A fresh server per input
// keeps the queue empty, so no 429 can arise from the fuzzer's own load.
func FuzzPostBodies(f *testing.F) {
	for i, body := range []string{
		`{"energy_ev": 0.25, "options": {"nint": 8}}`,
		`{"energy_hartree": -0.1}`,
		`{"energies_ev": [-0.2, 0.1], "options": {"nrh": 4}}`,
		`{"emin_ev": -1, "emax_ev": 1, "ne": 3}`,
		`{"energies_ev": [0], "kmax_im": 0.5}`,
		`{"energies_ev": [0, 0.1], "cells": 4, "bias_hartree": [0, 0.2]}`,
		`{"energies_ev": [0], "cells": 2, "barrier_hartree": [0.1, 0.1, 0.1]}`,
		`{"emin_ev": 0, "emax_ev": 1, "ne": 2000000000}`,
		`{"energy_ev": 0.25, "options": {"precision": "mixed"}}`,
		`{"energies_ev": [0`,
		`[]`,
		``,
	} {
		f.Add(uint8(i), body)
	}
	f.Fuzz(func(t *testing.T, route uint8, body string) {
		fb := &fakeBackend{}
		s, err := newServer(serverConfig{
			backend: backend{
				desc: "fake|grid=2x2x2|N=8|a=1", ef: 0.1, a: 7.5,
				solve: fb.solve,
				transport: func(context.Context, sweep.SolveFunc, negf.Spec, core.Options, sweep.Config) (*negf.Curve, error) {
					return &negf.Curve{}, nil
				},
			},
			workers: 1, queueDepth: 4, defaults: core.DefaultOptions(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()     // cancel whatever was accepted instead of running it
			s.Drain(ctx) //nolint:errcheck // teardown
		}()
		path := postRoutes[int(route)%len(postRoutes)]
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		submitted := s.mgr.Metrics().Submitted
		switch rec.Code {
		case http.StatusAccepted:
			if submitted != 1 {
				t.Fatalf("%s %q: 202 with %d jobs submitted", path, body, submitted)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if submitted != 0 {
				t.Fatalf("%s %q: HTTP %d but %d jobs submitted", path, body, rec.Code, submitted)
			}
		default:
			t.Fatalf("%s %q: HTTP %d, want 202, 400 or 413: %s", path, body, rec.Code, rec.Body)
		}
	})
}
