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
// property tests and cheap interactive transport serving). The solver has
// one quadrature-point loop for both; a worker observes which it was handed
// and picks its block-solve layout once (split-complex planes or the Ndm > 1
// domain decomposition for a *hamiltonian.Operator, interleaved blocks for
// every other backend).
package operator

// Backend is a matrix-free z-periodic operator in the QEP block form
// H0 = H_{n,n}, H+ = H_{n,n+1}, H- = H_{n,n-1} = H+^dagger. The dual
// contour identity P(z)^dagger = P(1/conj z) the solver relies on requires
// H0 = H0^dagger and H- = H+^dagger; every implementation must preserve
// it.
//
// Blocked applies use the interleaved row-major block layout of the hot
// path: an n x nb block stored as nb contiguous column values per grid
// point (v[i*nb+c]).
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

	// Single-vector applies (reference path and residual checks).
	ApplyH0(v, out []complex128)
	ApplyHp(v, out []complex128)
	ApplyHm(v, out []complex128)

	// Blocked applies (the contour hot path). ApplyShiftedH0Block computes
	// out = (shift - H0) V; the Accum forms compute out += coef * H± V.
	// The //cbs:hotpath directives are contracts, not checks: hotpathalloc
	// admits calls through these methods inside hot kernels, and every
	// implementation must annotate (and therefore pass the body rules on)
	// its own methods.
	//
	//cbs:hotpath
	ApplyShiftedH0Block(shift float64, v, out []complex128, nb int)
	//cbs:hotpath
	AccumHpBlock(coef complex128, v, out []complex128, nb int)
	//cbs:hotpath
	AccumHmBlock(coef complex128, v, out []complex128, nb int)
}
