// Package scf runs a small self-consistent-field loop on top of the
// substrate packages: starting from the superposition potential it
// iterates density -> Hartree (Poisson) -> LDA exchange-correlation ->
// effective potential with linear mixing, diagonalizing at the Gamma point
// with the sparse eigensolver.
//
// The paper obtains its converged potential from the RSPACE code; this
// package is the optional self-consistency stage of that substitution for
// small cells (the CBS pipeline itself only needs *a* converged-shaped
// potential; see DESIGN.md).
package scf

import (
	"fmt"
	"math"

	"cbs/internal/bandstructure"
	"cbs/internal/density"
	"cbs/internal/eigsparse"
	"cbs/internal/hamiltonian"
	"cbs/internal/operator"
	"cbs/internal/poisson"
	"cbs/internal/xc"
)

// Options controls the SCF loop.
type Options struct {
	MaxIter    int     // outer iterations (default 30)
	Mix        float64 // linear mixing parameter (default 0.3)
	Tol        float64 // convergence: max |V_new - V_old| (hartree, default 1e-4)
	EigTol     float64 // eigensolver residual target (default 1e-5)
	ExtraBands int     // unoccupied bands to include (default 4)
}

// Result reports the converged state.
type Result struct {
	Iterations  int
	Converged   bool
	DeltaV      float64   // final potential change
	Eigenvalues []float64 // Gamma-point KS eigenvalues (hartree)
	Density     []float64
}

// Run iterates the operator's local potential to self-consistency in place:
// on return op.VLoc holds V_ion + V_H + V_xc of the converged density.
func Run(op *hamiltonian.Operator, opts Options) (*Result, error) {
	if opts.MaxIter <= 0 {
		opts.MaxIter = 30
	}
	if opts.Mix <= 0 || opts.Mix > 1 {
		opts.Mix = 0.3
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-4
	}
	if opts.EigTol <= 0 {
		opts.EigTol = 1e-5
	}
	if opts.ExtraBands <= 0 {
		opts.ExtraBands = 4
	}
	g := op.G
	st := op.Structure
	ne, err := bandstructure.ValenceElectrons(op)
	if err != nil {
		return nil, err
	}
	nocc := int(math.Ceil(ne / 2))
	nev := nocc + opts.ExtraBands
	if nev > g.N() {
		return nil, fmt.Errorf("scf: %d bands exceed the grid dimension %d", nev, g.N())
	}

	ps, err := poisson.NewSolver(g, op.St.Nf)
	if err != nil {
		return nil, err
	}
	nion, err := density.IonicBackground(g, st)
	if err != nil {
		return nil, err
	}
	// Start from the superposition density.
	rho, err := density.Superposition(g, st)
	if err != nil {
		return nil, err
	}
	// Calibrate the ionic reference so that the starting screened
	// superposition potential is exactly the effective potential of the
	// starting density: vion = V_start - V_H(rho_0 - n_ion) - V_xc(rho_0).
	// The screened atomic potentials already model the neutral-atom
	// screening; this keeps the SCF functional consistent with them (see
	// the package comment on the RSPACE substitution).
	vion := append([]float64(nil), op.VLoc...)
	{
		diff := make([]float64, g.N())
		for i := range diff {
			diff[i] = rho[i] - nion[i]
		}
		vh0, err := ps.Hartree(diff, 1e-8, 0)
		if err != nil {
			return nil, err
		}
		vxc0 := make([]float64, g.N())
		xc.PotentialOnGrid(rho, vxc0)
		for i := range vion {
			vion[i] -= vh0[i] + vxc0[i]
		}
	}

	res := &Result{}
	vxc := make([]float64, g.N())
	n := g.N()
	// The plane tables read op.VLoc in place, so one helper sees each
	// iteration's mixed potential.
	x := operator.NewVectors(op)
	apply := func(v, out []complex128) { x.Bloch(1, v, out) }
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iterations = iter + 1
		// Density of the lowest Gamma-point states of the current
		// potential.
		eig, err := eigsparse.Lowest(apply, n, nev, eigsparse.Options{Tol: opts.EigTol, Seed: int64(iter)})
		if err != nil {
			return nil, err
		}
		res.Eigenvalues = eig.Values
		occ := occupations(eig.Values, ne)
		rho, err = density.FromOrbitals(g, eig.Vectors, occ)
		if err != nil {
			return nil, err
		}
		// Effective potential of that density: V_ion + V_H(rho - rho_ion)
		// + V_xc(rho). The ionic background keeps the Poisson right-hand
		// side neutral.
		diff := make([]float64, n)
		for i := range diff {
			diff[i] = rho[i] - nion[i]
		}
		vh, err := ps.Hartree(diff, 1e-8, 0)
		if err != nil {
			return nil, err
		}
		xc.PotentialOnGrid(rho, vxc)
		deltaV := 0.0
		for i := 0; i < n; i++ {
			vNew := vion[i] + vh[i] + vxc[i]
			d := math.Abs(vNew - op.VLoc[i])
			if d > deltaV {
				deltaV = d
			}
			op.VLoc[i] = (1-opts.Mix)*op.VLoc[i] + opts.Mix*vNew
		}
		res.DeltaV = deltaV
		if deltaV < opts.Tol {
			res.Converged = true
			break
		}
	}
	res.Density = rho
	return res, nil
}

// smearingKT is the Fermi-Dirac smearing temperature (hartree) that damps
// occupation oscillations across metallic level crossings.
const smearingKT = 0.02

// occupations fills ne electrons into the levels with Fermi-Dirac smearing
// (2 electrons per level, spin degenerate); the chemical potential is found
// by bisection.
func occupations(vals []float64, ne float64) []float64 {
	occ := make([]float64, len(vals))
	if len(vals) == 0 {
		return occ
	}
	total := func(mu float64) float64 {
		var s float64
		for _, e := range vals {
			s += 2 * fermi((e-mu)/smearingKT)
		}
		return s
	}
	lo := vals[0] - 10*smearingKT
	hi := vals[len(vals)-1] + 10*smearingKT
	for i := 0; i < 100; i++ {
		mid := 0.5 * (lo + hi)
		if total(mid) < ne {
			lo = mid
		} else {
			hi = mid
		}
	}
	mu := 0.5 * (lo + hi)
	var s float64
	for i, e := range vals {
		occ[i] = 2 * fermi((e-mu)/smearingKT)
		s += occ[i]
	}
	// Rescale to the exact electron count (the finite band set truncates
	// the high tail).
	if s > 0 {
		f := ne / s
		for i := range occ {
			occ[i] *= f
		}
	}
	return occ
}

func fermi(x float64) float64 {
	if x > 40 {
		return 0
	}
	if x < -40 {
		return 1
	}
	return 1 / (1 + math.Exp(x))
}
