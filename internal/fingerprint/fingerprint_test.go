package fingerprint

import (
	"testing"

	"cbs/internal/core"
)

// TestGoldenFingerprints pins the digest of fixed inputs. These values are
// load-bearing: existing sweep journals embed them in their headers, so a
// change here means every deployed checkpoint is orphaned. If the hashed
// material must change, bump the domain string ("cbs-sweep/v1") and the
// journal version together, and regenerate these constants.
func TestGoldenFingerprints(t *testing.T) {
	desc := "al|grid=6x6x8|N=288|a=7.65339"
	cases := []struct {
		name string
		got  string
		want string
	}{
		{
			name: "default options, three energies",
			got:  Key(desc, []float64{-0.25, 0, 0.25}, core.DefaultOptions()),
			want: "57f21d55743e4262",
		},
		{
			name: "zero values",
			got:  Key("", nil, core.Options{}),
			want: "c4135b83cf02a120",
		},
		{
			name: "single solve",
			got:  Solve(desc, 0.125, core.DefaultOptions()),
			want: "9d7d68e62ec8b1ad",
		},
		{
			// /v1/transport jobs and their checkpoint journals key on this;
			// the postDesc literal is negf.Spec.PostDesc for a bare 3-cell
			// device under default NEGF options.
			name: "transport",
			got: Transport(desc, []float64{-0.25, 0, 0.25}, core.DefaultOptions(),
				"cells=3 eta=1.0000000000000001e-09 ptol=0.0001"),
			want: "ed49fdec11246dfb",
		},
		{
			// Job logs stamp this into their header; a change orphans every
			// deployed job log on restart.
			name: "operator identity",
			got:  Operator(desc),
			want: "e8f99e21c4460168",
		},
		{
			name: "empty operator identity",
			got:  Operator(""),
			want: "c1f58555e4c1f62c",
		},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: fingerprint %s, want %s (STABILITY BREAK: existing journals will refuse to resume)", c.name, c.got, c.want)
		}
	}
}

// TestSolveIsOneElementSweep pins the cache/journal key unification: a
// single-energy solve and a one-element sweep share a fingerprint.
func TestSolveIsOneElementSweep(t *testing.T) {
	opts := core.DefaultOptions()
	if Solve("d", 0.5, opts) != Key("d", []float64{0.5}, opts) {
		t.Fatal("Solve(e) != Key([e])")
	}
}

// TestFieldSensitivity verifies that every result-affecting input perturbs
// the digest (no field is dropped from the hash), and that the excluded
// fields — the parallel layout and the chaos injector — do not.
func TestFieldSensitivity(t *testing.T) {
	desc := "op"
	es := []float64{-0.1, 0.2}
	base := core.DefaultOptions()
	ref := Key(desc, es, base)

	mutants := []struct {
		name string
		key  string
	}{
		{"desc", Key("op2", es, base)},
		{"energy value", Key(desc, []float64{-0.1, 0.2000000001}, base)},
		{"energy count", Key(desc, []float64{-0.1}, base)},
		{"energy order", Key(desc, []float64{0.2, -0.1}, base)},
		{"Nint", Key(desc, es, with(base, func(o *core.Options) { o.Nint *= 2 }))},
		{"Nmm", Key(desc, es, with(base, func(o *core.Options) { o.Nmm++ }))},
		{"Nrh", Key(desc, es, with(base, func(o *core.Options) { o.Nrh++ }))},
		{"Delta", Key(desc, es, with(base, func(o *core.Options) { o.Delta = 1e-12 }))},
		{"LambdaMin", Key(desc, es, with(base, func(o *core.Options) { o.LambdaMin = 0.4 }))},
		{"BiCGTol", Key(desc, es, with(base, func(o *core.Options) { o.BiCGTol = 1e-8 }))},
		{"MaxIter", Key(desc, es, with(base, func(o *core.Options) { o.MaxIter = 77 }))},
		{"ResidualTol", Key(desc, es, with(base, func(o *core.Options) { o.ResidualTol = 1e-6 }))},
		{"LoadBalanceStop", Key(desc, es, with(base, func(o *core.Options) { o.LoadBalanceStop = true }))},
		{"Seed", Key(desc, es, with(base, func(o *core.Options) { o.Seed = 2 }))},
	}
	seen := map[string]string{ref: "base"}
	for _, m := range mutants {
		if m.key == ref {
			t.Errorf("mutating %s did not change the fingerprint", m.name)
		}
		if prev, dup := seen[m.key]; dup {
			t.Errorf("fingerprint collision between %s and %s", m.name, prev)
		}
		seen[m.key] = m.name
	}

	// Excluded inputs: the digest must be identical across worker layouts
	// (a journal resumes on any worker count).
	par := base
	par.Parallel = core.Parallel{Top: 4, Mid: 2, Ndm: 2}
	if Key(desc, es, par) != ref {
		t.Error("Parallel layout leaked into the fingerprint")
	}
}

// with copies o and applies one mutation.
func with(o core.Options, f func(*core.Options)) core.Options {
	f(&o)
	return o
}
