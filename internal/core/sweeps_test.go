package core

import (
	"testing"

	"cbs/internal/qep"
	"cbs/internal/tb"
)

// TestHankelSVDSweeps pins the cost of the QR-preconditioned Hankel SVD:
// at transport_tb's options (Nrh 8, Nmm 7) on the 8x7 slab, over 32
// energies on its window [-5.786, -4.860], the SVD averages at most 10
// Jacobi sweeps (the unpreconditioned sweep averaged 25.2 here).
func TestHankelSVDSweeps(t *testing.T) {
	slab, err := tb.NewSlab(tb.SlabConfig{Nx: 8, Ny: 7, Onsite: 0, Hopping: -1, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Nrh, opts.Nmm = 8, 7
	const energies = 32
	sweeps := 0
	for i := 0; i < energies; i++ {
		e := -5.786 + (-4.860+5.786)*float64(i)/(energies-1)
		res, err := Solve(qep.NewBackend(slab, e), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Diagnostics.SVDSweeps < 1 {
			t.Fatalf("E=%g: %d sweeps recorded", e, res.Diagnostics.SVDSweeps)
		}
		sweeps += res.Diagnostics.SVDSweeps
	}
	if avg := float64(sweeps) / energies; avg > 10 {
		t.Errorf("Hankel SVD averages %.2f Jacobi sweeps per solve, want <= 10", avg)
	}
}
