package scf

import (
	"math"
	"testing"

	"cbs/internal/hamiltonian"
	"cbs/internal/lattice"
)

// TestSCFIterationBitsGolden pins the Gamma-point eigenvalues of the first
// and second SCF iterations on the 8x8x8 Al cell bit for bit: the first
// diagonalizes the superposition potential, the second the potential the
// first iteration mixed into op.VLoc in place.
func TestSCFIterationBitsGolden(t *testing.T) {
	st, err := lattice.AlBulk100(1)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, iters := range []int{1, 2} {
		op, err := hamiltonian.Build(st, hamiltonian.Config{Nx: 8, Ny: 8, Nz: 8, Nf: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(op, Options{MaxIter: iters, Tol: 1e-12, EigTol: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Eigenvalues {
			got = append(got, math.Float64bits(v))
		}
	}
	if len(got) != len(scfGolden) {
		t.Fatalf("%d values, pinned %d\n\tgot: %#v", len(got), len(scfGolden), got)
	}
	for i := range got {
		if got[i] != scfGolden[i] {
			t.Fatalf("value %d = %v, pinned %v\n\tgot: %#v", i,
				math.Float64frombits(got[i]), math.Float64frombits(scfGolden[i]), got)
		}
	}
}

var scfGolden = []uint64{
	0xc0070ac7fc84f16f, 0xc0070ac20e7e6a36, 0xc0070ac20e7e6a26, 0xc0070ac20e7e6a15, 0xbfc0087c0bc4b06d,
	0x3fc33ceeeaf9da15, 0x3fc33ceeeb3b039f, 0x3fc33ceeedf637ce, 0x3fd2a564192a20fb, 0x3fd2a5641db7f534,
	0xbffea8d561076261, 0xbffea8b62ec66738, 0xbffea8b5fa7a04bc, 0xbffea8b5e3241bdf, 0xbfb82140b3310840,
	0x3fcb513681b6ebb2, 0x3fcb513769631bed, 0x3fcb51379ff621a0, 0x3fd2f92a5307c951, 0x3fd2f92d52d011ca,
}
