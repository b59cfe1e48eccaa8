package modelflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"cbs"
)

// build parses args on a fresh flag set registered the way the named binary
// does and builds its model.
func build(t *testing.T, seedFlag string, args ...string) (*cbs.Model, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	buildModel := Register(fs, seedFlag)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return buildModel()
}

// TestWorkerModelMatchesCoordinator: for the same flags a fleet worker
// (cbsw), its coordinator (cbs) and cbsd build operators with one
// descriptor, on every backend — the coordinator admits a worker only on an
// equal operator digest, so a system one binary cannot build can never be
// served by a fleet.
func TestWorkerModelMatchesCoordinator(t *testing.T) {
	for _, args := range [][]string{
		{"-system", "al", "-nxy", "6", "-nz", "8"},
		{"-system", "tb-chain", "-tb-sites", "3", "-tb-a", "3", "-tb-hop", "-0.5"},
		{"-system", "tb-slab", "-tb-nx", "3", "-tb-ny", "2", "-tb-onsite", "0.25"},
	} {
		coordinator, err := build(t, "seed", args...)
		if err != nil {
			t.Fatalf("%v: coordinator: %v", args, err)
		}
		worker, err := build(t, "seed", args...)
		if err != nil {
			t.Fatalf("%v: worker: %v", args, err)
		}
		server, err := build(t, "dope-seed", args...)
		if err != nil {
			t.Fatalf("%v: cbsd: %v", args, err)
		}
		want := coordinator.OperatorDesc()
		if got := worker.OperatorDesc(); got != want {
			t.Errorf("%v: worker descriptor %q, coordinator %q", args, got, want)
		}
		if got := server.OperatorDesc(); got != want {
			t.Errorf("%v: cbsd descriptor %q, coordinator %q", args, got, want)
		}
	}
}

func TestUnknownSystem(t *testing.T) {
	if _, err := build(t, "seed", "-system", "nosuch"); err == nil || !strings.Contains(err.Error(), `unknown system "nosuch"`) {
		t.Errorf("err = %v, want unknown system", err)
	}
}
