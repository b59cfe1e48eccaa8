package core

import (
	"context"
	"testing"

	"cbs/internal/chaos"
	"cbs/internal/linsolve"
	"cbs/internal/qep"
	"cbs/internal/soa"
	"cbs/internal/tb"
)

// TestPointLoopZeroAlloc pins the steady state of the point loop's block
// solve at zero allocations on both backends: after the first point, a
// worker's solve reuses its planes, workspace and apply closures.
func TestPointLoopZeroAlloc(t *testing.T) {
	slab, err := tb.NewSlab(tb.SlabConfig{Nx: 8, Ny: 7, Hopping: -1, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		q    *qep.Problem
	}{
		{"fd", qep.NewBackend(smallAl(t, 8), 0.1)},
		{"tb", qep.NewBackend(slab, -5.2)},
	} {
		const nb = 4
		b := soa.NewBlock[float64](tc.q.Dim(), nb)
		for i := range b.Re {
			b.Re[i], b.Im[i] = float64(i%7)-3, float64(i%5)-2
		}
		w := newBlockWorker(tc.q, b, nil)
		groups := make([]*linsolve.GroupStop, nb)
		for c := range groups {
			groups[c] = linsolve.NewGroupStop(4, true)
		}
		lopts := linsolve.Options{Tol: 1e-10, Chaos: chaos.New(1, chaos.Config{}), ChaosSite: chaos.Site{Point: 2}}
		z := complex(0.3, 0.9)
		if allocs := testing.AllocsPerRun(3, func() {
			if _, _, err := w.solve(context.Background(), z, lopts, groups); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: a point's block solve allocates %.0f times, want 0", tc.name, allocs)
		}
	}
}
