// Package bandstructure computes the conventional band structure E_n(k)
// from the same Hamiltonian blocks the CBS solver uses: for a real wave
// vector k the Bloch Hamiltonian H(k) = e^{-ika} H- + H0 + e^{ika} H+ is
// Hermitian and is diagonalized densely. These are the red reference curves
// of the paper's Fig. 6 and the source of the Fermi-level estimate.
package bandstructure

import (
	"fmt"
	"math"
	"sort"

	"cbs/internal/eigsparse"
	"cbs/internal/hamiltonian"
	"cbs/internal/operator"
	"cbs/internal/pseudo"
	"cbs/internal/qep"
	"cbs/internal/zlinalg"
)

// Bands diagonalizes H(k) at each k (in units of 1/bohr) and returns the
// lowest nbands eigenvalues (hartree), ascending, per k. nbands <= 0 means
// all.
func Bands(op *hamiltonian.Operator, ks []float64, nbands int) ([][]float64, error) {
	a := op.G.Lz()
	out := make([][]float64, len(ks))
	for i, k := range ks {
		lam := qep.LambdaFromK(complex(k, 0), a)
		vals, _, err := zlinalg.EigHermitian(operator.DenseBloch(op, lam))
		if err != nil {
			return nil, fmt.Errorf("bandstructure: k=%g: %w", k, err)
		}
		if nbands > 0 && nbands < len(vals) {
			vals = vals[:nbands]
		}
		out[i] = vals
	}
	return out, nil
}

// UniformK returns nk wave vectors spanning the first Brillouin zone
// [0, pi/a] (time-reversal symmetric half).
func UniformK(op *hamiltonian.Operator, nk int) []float64 {
	a := op.G.Lz()
	ks := make([]float64, nk)
	for i := range ks {
		ks[i] = math.Pi / a * float64(i) / float64(nk-1)
	}
	if nk == 1 {
		ks[0] = 0
	}
	return ks
}

// LowestBands computes the nev lowest bands at each k with the sparse
// LOBPCG eigensolver on the matrix-free Bloch operator -- the path for
// cells too large to diagonalize densely.
func LowestBands(op *hamiltonian.Operator, ks []float64, nev int) ([][]float64, error) {
	a := op.G.Lz()
	n := op.N()
	out := make([][]float64, len(ks))
	x := operator.NewVectors(op)
	for i, k := range ks {
		lam := qep.LambdaFromK(complex(k, 0), a)
		apply := func(v, o []complex128) { x.Bloch(lam, v, o) }
		// Chebyshev-filtered subspace iteration (the production real-space
		// DFT eigensolver). Ritz values converge quadratically in the
		// residual, so a modest target already gives band energies far
		// below the Fermi-filling resolution.
		res, err := eigsparse.LowestChebyshev(apply, n, nev,
			eigsparse.ChebOptions{Tol: 1e-3, MaxOuter: 60, Degree: 12, Seed: int64(i)})
		if err != nil {
			return nil, fmt.Errorf("bandstructure: sparse bands at k=%g: %w", k, err)
		}
		out[i] = res.Values
	}
	return out, nil
}

// ValenceElectrons sums the valence charges of the structure's atoms.
func ValenceElectrons(op *hamiltonian.Operator) (float64, error) {
	var ne float64
	for _, at := range op.Structure.Atoms {
		sp, err := pseudo.Lookup(at.Species)
		if err != nil {
			return 0, err
		}
		ne += sp.Zval
	}
	return ne, nil
}

// denseFermiLimit is the dimension above which FermiLevel switches from
// dense diagonalization to the sparse (LOBPCG) eigensolver: dense O(N^3)
// work becomes prohibitive long before the occupied subspace does.
const denseFermiLimit = 1200

// FermiLevel estimates the Fermi energy (hartree) by filling the valence
// electrons (2 per band per k, spin degenerate) over a uniform k sample.
// Large cells use the sparse eigensolver for the lowest bands only.
func FermiLevel(op *hamiltonian.Operator, nk int) (float64, error) {
	ne, err := ValenceElectrons(op)
	if err != nil {
		return 0, err
	}
	if nk < 1 {
		nk = 4
	}
	ks := UniformK(op, nk)
	var bands [][]float64
	if op.N() > denseFermiLimit {
		nev := int(math.Ceil(ne/2)) + 6
		bands, err = LowestBands(op, ks, nev)
	} else {
		bands, err = Bands(op, ks, 0)
	}
	if err != nil {
		return 0, err
	}
	// Pool all band energies; each level holds 2/nk electrons.
	var all []float64
	for _, b := range bands {
		all = append(all, b...)
	}
	sort.Float64s(all)
	perLevel := 2.0 / float64(len(ks))
	need := ne
	for _, e := range all {
		need -= perLevel
		if need <= 1e-9 {
			return e, nil
		}
	}
	return 0, fmt.Errorf("bandstructure: not enough bands to hold %g electrons", ne)
}
