package operator_test

import (
	"testing"

	"cbs/internal/hamiltonian"
	"cbs/internal/lattice"
	"cbs/internal/operator"
	"cbs/internal/tb"
)

// TestVectorsZeroAlloc pins the helper's single-vector applies at zero
// allocations per call on both backends: the scratch planes are built once
// by NewVectors, so an eigensolver or Krylov loop calling them per
// iteration never touches the heap.
func TestVectorsZeroAlloc(t *testing.T) {
	st, err := lattice.AlBulk100(1)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := hamiltonian.Build(st, hamiltonian.Config{Nx: 6, Ny: 6, Nz: 8, Nf: 4})
	if err != nil {
		t.Fatal(err)
	}
	slab, err := tb.NewSlab(tb.SlabConfig{Nx: 8, Ny: 7, Onsite: 0, Hopping: -1, A: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []operator.Backend{fd, slab} {
		n := b.N()
		x := operator.NewVectors(b)
		v, out := make([]complex128, n), make([]complex128, n)
		for i := range v {
			v[i] = complex(float64(i%7)-3, float64(i%5)-2)
		}
		for name, apply := range map[string]func(){
			"H0":    func() { x.H0(v, out) },
			"H+":    func() { x.Hp(v, out) },
			"H-":    func() { x.Hm(v, out) },
			"Bloch": func() { x.Bloch(complex(0.6, 0.8), v, out) },
		} {
			if allocs := testing.AllocsPerRun(5, apply); allocs != 0 {
				t.Errorf("%s %s: %.0f allocations per call, want 0", b.Descriptor(), name, allocs)
			}
		}
	}
}
