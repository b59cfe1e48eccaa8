// Package operator defines the contract between an operator backend and
// the Sakurai-Sugiura CBS solver. The paper's quadratic eigenvalue problem
//
//	P(lambda) = -lambda^{-1} H- + (E - H0) - lambda H+
//
// only needs the three cell-coupling blocks of a z-periodic Hamiltonian
// applied matrix-free, the 1D cell length that converts Bloch factors to
// wave vectors, and a stable descriptor string for fingerprint identity.
// Everything else about a backend — grids, pseudopotentials, hopping
// tables — is private to it.
//
// Two implementations exist: the FD-grid Kohn-Sham operator
// (internal/hamiltonian, the paper's workload) and the nearest-neighbor
// tight-binding operator (internal/tb, closed-form dispersions for
// property tests and cheap interactive transport serving). A backend is
// its three Planes kernels and nothing else applies its blocks: every
// solve — the block solves, the recovery ladder's one-column restarts and
// its GMRES fallback — applies P(z) on split-complex planes through them,
// and the residual checks, the dense assemblies, the OBM baseline, the
// band structure, SCF and NEGF's channel probes reach them through
// Vectors and DenseBlocks, so the whole program runs one kernel set.
package operator

import "cbs/internal/soa"

// Backend is a matrix-free z-periodic operator in the QEP block form
// H0 = H_{n,n}, H+ = H_{n,n+1}, H- = H_{n,n-1} = H+^dagger. The dual
// contour identity P(z)^dagger = P(1/conj z) the solver relies on requires
// H0 = H0^dagger and H- = H+^dagger; every implementation must preserve
// it.
type Backend interface {
	// N is the per-cell dimension of the operator.
	N() int
	// CellLength is the 1D lattice constant a (bohr): lambda = e^{ika}.
	CellLength() float64
	// Descriptor is the stable identity string hashed into every solve and
	// sweep fingerprint (internal/fingerprint). Two backends whose results
	// could ever differ MUST have distinct descriptors — cache entries,
	// sweep journals and job logs all key on it.
	Descriptor() string
	// MemoryBytes estimates the backend's resident footprint.
	MemoryBytes() int64

	Planes
}

// Planes is the contour hot path: the shifted H0 and the H± accumulations
// of P(z) on a split-complex n x nb block (soa.Block; element (i, c) at
// Re[i*nb+c], Im[i*nb+c]), out = (shift - H0) V and out += coef * H± V,
// with the complex coefficient of H± split into its real and imaginary
// parts at this boundary. Columns are independent: column c of the result
// depends only on column c of V, and its bits do not depend on nb, so a
// one-column solve reproduces its column of a block solve.
//
// The //cbs:hotpath directives are contracts, not checks: hotpathalloc
// admits calls through these methods inside hot kernels, and every
// implementation must annotate (and therefore pass the body rules on) its
// own kernels.
type Planes interface {
	//cbs:hotpath
	ApplyShiftedH0Planes(shift float64, v, out *soa.Block[float64])
	//cbs:hotpath
	AccumHpPlanes(coefRe, coefIm float64, v, out *soa.Block[float64])
	//cbs:hotpath
	AccumHmPlanes(coefRe, coefIm float64, v, out *soa.Block[float64])
}
