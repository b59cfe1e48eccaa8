// Package tb is a nearest-neighbor tight-binding operator backend for the
// CBS solver: the same quadratic eigenvalue problem as the FD-grid
// Kohn-Sham operator, but with closed-form dispersions. A uniform chain
// obeys
//
//	E = eps + 2 t cos(k a),
//
// so its Bloch factors solve lambda + 1/lambda = (E - eps)/t analytically —
// which makes the backend the property-test oracle for the Sakurai-Sugiura
// contour solver and a cheap lead model for NEGF transport (internal/negf).
//
// Two geometries are provided: a 1D chain with nc sites per cell (the
// supercell folds the primitive root mu into lambda = mu^{±nc}) and a
// simple-cubic slab with Nx x Ny hard-wall transverse sites per layer,
// whose transverse modes shift the chain dispersion by
// 2t[cos(p pi/(Nx+1)) + cos(q pi/(Ny+1))].
package tb

import (
	"fmt"
	"math"
	"math/cmplx"

	"cbs/internal/soa"
)

// hop is one directed hopping matrix element t between site i of a cell and
// site j of the same (intra) or next (inter) cell.
type hop struct {
	i, j int
	t    float64
}

// Backend is a nearest-neighbor tight-binding operator in the QEP block
// form. Onsite energies sit on the H0 diagonal; intra-cell hoppings are
// applied symmetrically (H0 = H0^dagger); inter-cell hoppings define H+
// with H- = H+^T (real hoppings), preserving the dual contour identity
// P(z)^dagger = P(1/conj z) the solver requires.
type Backend struct {
	n    int
	a    float64
	desc string

	onsite []float64
	intra  []hop // i < j; applied to both (i,j) and (j,i)
	inter  []hop // <i, cell n | H | j, cell n+1> = t

	// The plane applies' tables, compiled from intra and inter by
	// compile: each row lists its hops in the order a loop over the hop
	// lists reaches that row (the test oracle is such a loop).
	h0, hp, hm *soa.CSR
}

// ChainConfig describes a 1D chain supercell: Sites sites per periodic
// cell, uniform Onsite energy eps and Hopping t (hartree), cell length A
// (bohr). Onsite energies of individual sites can be perturbed afterwards
// only by constructing a fresh backend — backends are immutable so their
// Descriptor stays truthful.
type ChainConfig struct {
	Sites   int
	Onsite  float64
	Hopping float64
	A       float64
}

// NewChain builds the chain backend.
func NewChain(cfg ChainConfig) (*Backend, error) {
	if cfg.Sites < 1 {
		return nil, fmt.Errorf("tb: chain needs at least 1 site per cell, got %d", cfg.Sites)
	}
	if cfg.Hopping == 0 {
		return nil, fmt.Errorf("tb: chain hopping t must be nonzero")
	}
	if cfg.A <= 0 {
		return nil, fmt.Errorf("tb: cell length a = %g must be positive", cfg.A)
	}
	b := &Backend{
		n: cfg.Sites,
		a: cfg.A,
		desc: fmt.Sprintf("tb-chain|sites=%d|eps=%.12g|t=%.12g|a=%.12g",
			cfg.Sites, cfg.Onsite, cfg.Hopping, cfg.A),
		onsite: make([]float64, cfg.Sites),
	}
	for i := range b.onsite {
		b.onsite[i] = cfg.Onsite
	}
	for i := 0; i+1 < cfg.Sites; i++ {
		b.intra = append(b.intra, hop{i, i + 1, cfg.Hopping})
	}
	// Last site of cell n couples to first site of cell n+1.
	b.inter = append(b.inter, hop{cfg.Sites - 1, 0, cfg.Hopping})
	b.compile()
	return b, nil
}

// SlabConfig describes a simple-cubic slab: one layer of Nx x Ny hard-wall
// transverse sites per periodic cell along z, uniform Onsite and Hopping,
// layer spacing A. Each transverse site couples to its in-layer neighbours
// (H0) and to the same site of the next layer (H+ = t I).
type SlabConfig struct {
	Nx, Ny  int
	Onsite  float64
	Hopping float64
	A       float64
}

// NewSlab builds the slab backend.
func NewSlab(cfg SlabConfig) (*Backend, error) {
	if cfg.Nx < 1 || cfg.Ny < 1 {
		return nil, fmt.Errorf("tb: slab cross-section %dx%d must be at least 1x1", cfg.Nx, cfg.Ny)
	}
	if cfg.Hopping == 0 {
		return nil, fmt.Errorf("tb: slab hopping t must be nonzero")
	}
	if cfg.A <= 0 {
		return nil, fmt.Errorf("tb: layer spacing a = %g must be positive", cfg.A)
	}
	n := cfg.Nx * cfg.Ny
	b := &Backend{
		n: n,
		a: cfg.A,
		desc: fmt.Sprintf("tb-slab|nx=%d|ny=%d|eps=%.12g|t=%.12g|a=%.12g",
			cfg.Nx, cfg.Ny, cfg.Onsite, cfg.Hopping, cfg.A),
		onsite: make([]float64, n),
	}
	for i := range b.onsite {
		b.onsite[i] = cfg.Onsite
	}
	idx := func(ix, iy int) int { return iy*cfg.Nx + ix }
	for iy := 0; iy < cfg.Ny; iy++ {
		for ix := 0; ix < cfg.Nx; ix++ {
			if ix+1 < cfg.Nx {
				b.intra = append(b.intra, hop{idx(ix, iy), idx(ix+1, iy), cfg.Hopping})
			}
			if iy+1 < cfg.Ny {
				b.intra = append(b.intra, hop{idx(ix, iy), idx(ix, iy+1), cfg.Hopping})
			}
		}
	}
	for i := 0; i < n; i++ {
		b.inter = append(b.inter, hop{i, i, cfg.Hopping})
	}
	b.compile()
	return b, nil
}

// compile builds the plane applies' tables: H0's off-diagonal, hop (i, j)
// entering row i at column j and then row j at column i; H+ with hop (i, j)
// in row i at column j; H- = H+^T with it in row j at column i.
func (b *Backend) compile() {
	var h0, hp, hm []soa.CSREntry
	for _, h := range b.intra {
		h0 = append(h0, soa.CSREntry{Row: h.i, Col: h.j, Val: h.t}, soa.CSREntry{Row: h.j, Col: h.i, Val: h.t})
	}
	for _, h := range b.inter {
		hp = append(hp, soa.CSREntry{Row: h.i, Col: h.j, Val: h.t})
		hm = append(hm, soa.CSREntry{Row: h.j, Col: h.i, Val: h.t})
	}
	b.h0, b.hp, b.hm = soa.NewCSR(b.n, h0), soa.NewCSR(b.n, hp), soa.NewCSR(b.n, hm)
}

// N returns the per-cell dimension.
func (b *Backend) N() int { return b.n }

// CellLength returns the 1D lattice constant a (bohr).
func (b *Backend) CellLength() float64 { return b.a }

// Descriptor is the backend's fingerprint identity. The "tb-" prefix keeps
// it disjoint from every FD-grid descriptor ("<structure>|grid=..."), so
// tight-binding results can never collide with FD-grid cache entries or
// sweep journals.
func (b *Backend) Descriptor() string { return b.desc }

// FermiGuess returns the band center (the mean onsite energy): the exact
// half-filling Fermi level of a particle-hole-symmetric nearest-neighbor
// model, and a serviceable reference energy otherwise. The cbs facade uses
// it where an FD-grid model would compute a band-sum Fermi level.
func (b *Backend) FermiGuess() float64 {
	var s float64
	for _, e := range b.onsite {
		s += e
	}
	return s / float64(len(b.onsite))
}

// MemoryBytes estimates the backend's resident footprint: the onsite
// energies, the hop lists and the three plane-apply tables.
func (b *Backend) MemoryBytes() int64 {
	return int64(len(b.onsite))*8 + int64(len(b.intra)+len(b.inter))*24 +
		b.h0.MemoryBytes() + b.hp.MemoryBytes() + b.hm.MemoryBytes()
}

// ApplyShiftedH0Planes computes out = (shift - H0) V on split planes
// (element (i, c) at index i*nb+c): per row the onsite term, then the
// row's intra hops in list order, each real coefficient applied to both
// planes.
//
//cbs:hotpath
func (b *Backend) ApplyShiftedH0Planes(shift float64, v, out *soa.Block[float64]) {
	soa.ShiftedCSR(out, v, shift, b.onsite, b.h0)
}

// AccumHpPlanes accumulates out += coef * H+ V on split planes,
// coef = coefRe + i*coefIm, each hop's coefficient coef*t.
//
//cbs:hotpath
func (b *Backend) AccumHpPlanes(coefRe, coefIm float64, v, out *soa.Block[float64]) {
	soa.AccumCSR(out, v, coefRe, coefIm, b.hp)
}

// AccumHmPlanes accumulates out += coef * H- V on split planes.
//
//cbs:hotpath
func (b *Backend) AccumHmPlanes(coefRe, coefIm float64, v, out *soa.Block[float64]) {
	soa.AccumCSR(out, v, coefRe, coefIm, b.hm)
}

// ChainDispersion is the analytic band of the single-site chain:
// E(k) = eps + 2 t cos(k a). For complex k it continues analytically,
// covering the evanescent branches in the gap.
func ChainDispersion(eps, t float64, k complex128, a float64) complex128 {
	return complex(eps, 0) + 2*complex(t, 0)*cmplx.Cos(k*complex(a, 0))
}

// ChainRoots returns the two primitive Bloch factors mu of the single-site
// chain at energy E, the roots of mu + 1/mu = (E - eps)/t: mu and 1/mu,
// ordered with |mu| <= 1. In a band both lie on the unit circle; outside,
// the first is the decaying (evanescent) root.
func ChainRoots(eps, t, e float64) (inside, outside complex128) {
	s := complex((e-eps)/(2*t), 0)
	r := cmplx.Sqrt(s*s - 1)
	mu1 := s + r
	mu2 := s - r
	if cmplx.Abs(mu1) <= cmplx.Abs(mu2) {
		return mu1, mu2
	}
	return mu2, mu1
}

// SlabModeEnergies returns the hard-wall transverse mode offsets of the
// slab: for each (p, q), eps_pq = eps + 2t[cos(p pi/(Nx+1)) + cos(q pi/(Ny+1))],
// p = 1..Nx, q = 1..Ny. Each mode disperses along z as an independent
// chain with onsite eps_pq, so the open-channel count at energy E is the
// number of modes with |E - eps_pq| < 2|t|.
func SlabModeEnergies(cfg SlabConfig) []float64 {
	var out []float64
	for p := 1; p <= cfg.Nx; p++ {
		for q := 1; q <= cfg.Ny; q++ {
			out = append(out, cfg.Onsite+
				2*cfg.Hopping*math.Cos(math.Pi*float64(p)/float64(cfg.Nx+1))+
				2*cfg.Hopping*math.Cos(math.Pi*float64(q)/float64(cfg.Ny+1)))
		}
	}
	return out
}
