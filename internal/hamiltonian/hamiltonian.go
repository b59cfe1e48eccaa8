// Package hamiltonian builds the Kohn-Sham Hamiltonian of one unit cell of a
// z-periodic crystal on a real-space grid, exposed as the three blocks of
// the paper's quadratic eigenvalue problem:
//
//	H0 = H_{n,n}   (in-cell: FD Laplacian + local potential + nonlocal),
//	H+ = H_{n,n+1} (cell-to-next coupling: Laplacian tails + projector overlap),
//	H- = H_{n,n-1} = H+^dagger.
//
// All blocks are applied matrix-free; this is the property the paper
// exploits to reach O(N) memory instead of the O(N^2) of the OBM baseline.
// The cell is periodic in x and y; z coupling is split by cell offset.
package hamiltonian

import (
	"fmt"
	"math"

	"cbs/internal/fd"
	"cbs/internal/grid"
	"cbs/internal/lattice"
	"cbs/internal/pseudo"
)

// Support is the sample list of one projector within one cell offset:
// flattened in-cell grid indices and the (dV-weighted) projector values.
type Support struct {
	Idx []int32
	Val []float64
}

// Projector is one Kleinman-Bylander projector function, split into its
// amplitudes on the home cell (offset 0) and the two neighbouring cells
// (offsets -1 and +1), in local coordinates of each cell.
type Projector struct {
	H    float64    // channel strength (hartree)
	Supp [3]Support // index 0: offset -1, 1: offset 0, 2: offset +1
}

// Operator is the matrix-free Hamiltonian of one unit cell.
type Operator struct {
	G  *grid.Grid
	St *fd.Stencil

	VLoc  []float64 // local potential (hartree) on the grid
	Projs []Projector

	Structure *lattice.Structure

	// Laplacian coefficients: kinetic operator is -1/2 Laplacian, so the
	// applied coefficients are kx[d] = -0.5*C[d]/hx^2 etc.; diag is the
	// combined d=0 term of all three directions.
	kx, ky, kz []float64
	diag       float64

	// Precomputed periodic neighbour tables for x and y:
	// xp[d-1][ix] = (ix+d) mod Nx, xm[d-1][ix] = (ix-d) mod Nx.
	xp, xm, yp, ym [][]int32

	// Lazily built split-complex coefficient tables (see soa.go).
	soaCache
}

// Config controls the discretization.
type Config struct {
	Nx, Ny, Nz int // grid points; the cell lengths come from the structure
	Nf         int // FD half-width (paper: 4, the "nine-point" stencil)
}

// Build discretizes the structure's unit cell: it constructs the local
// potential by superposing screened atomic pseudopotentials over all
// periodic images and samples the Kleinman-Bylander projectors with their
// cell-offset splits.
func Build(st *lattice.Structure, cfg Config) (*Operator, error) {
	if cfg.Nf < 1 {
		cfg.Nf = 4
	}
	g, err := grid.New(cfg.Nx, cfg.Ny, cfg.Nz, st.Lx, st.Ly, st.Lz)
	if err != nil {
		return nil, err
	}
	if cfg.Nz < cfg.Nf {
		return nil, fmt.Errorf("hamiltonian: Nz = %d < stencil half-width %d; cell couplings would exceed nearest neighbours", cfg.Nz, cfg.Nf)
	}
	stencil, err := fd.NewStencil(cfg.Nf)
	if err != nil {
		return nil, err
	}
	op := &Operator{G: g, St: stencil, Structure: st}
	op.initKinetic()
	if err := op.buildLocalPotential(); err != nil {
		return nil, err
	}
	if err := op.buildProjectors(); err != nil {
		return nil, err
	}
	return op, nil
}

// N returns the dimension of the Hamiltonian blocks.
//
//cbs:hotpath
func (op *Operator) N() int { return op.G.N() }

// CellLength returns the 1D lattice constant a (bohr): the z extent of the
// periodic cell, lambda = e^{ika}.
func (op *Operator) CellLength() float64 { return op.G.Lz() }

// Descriptor is the FD-grid backend's fingerprint identity: the structure,
// the grid, and the cell length pin down the physics a checkpoint or cache
// entry was computed under. The format is load-bearing — existing sweep
// journals and job logs hash it — so any change orphans deployed state
// (see internal/fingerprint's stability contract).
func (op *Operator) Descriptor() string {
	name := ""
	if op.Structure != nil {
		name = op.Structure.Name
	}
	g := op.G
	return fmt.Sprintf("%s|grid=%dx%dx%d|N=%d|a=%.12g", name, g.Nx, g.Ny, g.Nz, g.N(), g.Lz())
}

func (op *Operator) initKinetic() {
	nf := op.St.Nf
	op.kx = make([]float64, nf+1)
	op.ky = make([]float64, nf+1)
	op.kz = make([]float64, nf+1)
	for d := 0; d <= nf; d++ {
		op.kx[d] = -0.5 * op.St.C[d] / (op.G.Hx * op.G.Hx)
		op.ky[d] = -0.5 * op.St.C[d] / (op.G.Hy * op.G.Hy)
		op.kz[d] = -0.5 * op.St.C[d] / (op.G.Hz * op.G.Hz)
	}
	op.diag = op.kx[0] + op.ky[0] + op.kz[0]
	op.xp = make([][]int32, nf)
	op.xm = make([][]int32, nf)
	op.yp = make([][]int32, nf)
	op.ym = make([][]int32, nf)
	for d := 1; d <= nf; d++ {
		op.xp[d-1] = make([]int32, op.G.Nx)
		op.xm[d-1] = make([]int32, op.G.Nx)
		for ix := 0; ix < op.G.Nx; ix++ {
			op.xp[d-1][ix] = int32(op.G.WrapX(ix + d))
			op.xm[d-1][ix] = int32(op.G.WrapX(ix - d))
		}
		op.yp[d-1] = make([]int32, op.G.Ny)
		op.ym[d-1] = make([]int32, op.G.Ny)
		for iy := 0; iy < op.G.Ny; iy++ {
			op.yp[d-1][iy] = int32(op.G.WrapY(iy + d))
			op.ym[d-1][iy] = int32(op.G.WrapY(iy - d))
		}
	}
}

// buildLocalPotential superposes screened neutral-atom potentials over all
// periodic images in x, y and z.
func (op *Operator) buildLocalPotential() error {
	g := op.G
	op.VLoc = make([]float64, g.N())
	for _, at := range op.Structure.Atoms {
		sp, err := pseudo.Lookup(at.Species)
		if err != nil {
			return err
		}
		rc := sp.ScreenedCutoff()
		// Image ranges so that every image within rc of the cell is seen.
		nxImg := int(math.Ceil(rc/g.Lx())) + 1
		nyImg := int(math.Ceil(rc/g.Ly())) + 1
		nzImg := int(math.Ceil(rc/g.Lz())) + 1
		for mx := -nxImg; mx <= nxImg; mx++ {
			for my := -nyImg; my <= nyImg; my++ {
				for mz := -nzImg; mz <= nzImg; mz++ {
					ax := at.X + float64(mx)*g.Lx()
					ay := at.Y + float64(my)*g.Ly()
					az := at.Z + float64(mz)*g.Lz()
					op.addAtomPotential(sp, ax, ay, az, rc)
				}
			}
		}
	}
	return nil
}

// addAtomPotential adds the screened potential of one (image) atom to the
// grid points within its cutoff sphere.
func (op *Operator) addAtomPotential(sp pseudo.Species, ax, ay, az float64, rc float64) {
	g := op.G
	ix0 := int(math.Floor((ax - rc) / g.Hx))
	ix1 := int(math.Ceil((ax + rc) / g.Hx))
	iy0 := int(math.Floor((ay - rc) / g.Hy))
	iy1 := int(math.Ceil((ay + rc) / g.Hy))
	iz0 := int(math.Floor((az - rc) / g.Hz))
	iz1 := int(math.Ceil((az + rc) / g.Hz))
	// Clip to the cell: periodic images handle what falls outside.
	if ix0 < 0 {
		ix0 = 0
	}
	if ix1 > g.Nx-1 {
		ix1 = g.Nx - 1
	}
	if iy0 < 0 {
		iy0 = 0
	}
	if iy1 > g.Ny-1 {
		iy1 = g.Ny - 1
	}
	if iz0 < 0 {
		iz0 = 0
	}
	if iz1 > g.Nz-1 {
		iz1 = g.Nz - 1
	}
	rc2 := rc * rc
	for iz := iz0; iz <= iz1; iz++ {
		dz := float64(iz)*g.Hz - az
		for iy := iy0; iy <= iy1; iy++ {
			dy := float64(iy)*g.Hy - ay
			base := (iz*g.Ny + iy) * g.Nx
			for ix := ix0; ix <= ix1; ix++ {
				dx := float64(ix)*g.Hx - ax
				r2 := dx*dx + dy*dy + dz*dz
				if r2 > rc2 {
					continue
				}
				op.VLoc[base+ix] += sp.VScreened(math.Sqrt(r2))
			}
		}
	}
}

// buildProjectors samples every KB projector of every atom, splitting its
// support by cell offset in z and wrapping periodically in x and y.
func (op *Operator) buildProjectors() error {
	g := op.G
	dvw := math.Sqrt(g.DV()) // weight so plain dot products integrate
	for _, at := range op.Structure.Atoms {
		sp, err := pseudo.Lookup(at.Species)
		if err != nil {
			return err
		}
		for _, ch := range sp.Channels() {
			if ch.Cutoff >= g.Lz() {
				return fmt.Errorf("hamiltonian: projector cutoff %.2f exceeds cell length %.2f; blocks would couple beyond nearest cells", ch.Cutoff, g.Lz())
			}
			for m := 0; m < ch.NumProjectors(); m++ {
				proj, err := op.sampleProjector(at, sp, ch, m, dvw)
				if err != nil {
					return err
				}
				// Skip numerically empty projectors (possible on very
				// coarse grids).
				if len(proj.Supp[1].Idx) == 0 && len(proj.Supp[0].Idx) == 0 && len(proj.Supp[2].Idx) == 0 {
					continue
				}
				op.Projs = append(op.Projs, proj)
			}
		}
	}
	return nil
}

func (op *Operator) sampleProjector(at lattice.Atom, sp pseudo.Species, ch pseudo.Channel, m int, dvw float64) (Projector, error) {
	g := op.G
	proj := Projector{H: ch.H}
	rc := ch.Cutoff
	rc2 := rc * rc
	iz0 := int(math.Floor((at.Z - rc) / g.Hz))
	iz1 := int(math.Ceil((at.Z + rc) / g.Hz))
	// x/y wrap periodically: enumerate image shifts of the atom so every
	// grid point within the cutoff of any xy image is sampled once.
	nxImg := int(math.Ceil(rc / g.Lx()))
	nyImg := int(math.Ceil(rc / g.Ly()))
	for iz := iz0; iz <= iz1; iz++ {
		izc, off := g.WrapZ(iz)
		if off < -1 || off > 1 {
			return proj, fmt.Errorf("hamiltonian: projector support spans cell offset %d", off)
		}
		dz := float64(iz)*g.Hz - at.Z
		for iy := 0; iy < g.Ny; iy++ {
			for ix := 0; ix < g.Nx; ix++ {
				// Minimum-image xy displacement within cutoff.
				var val float64
				found := false
				for mx := -nxImg; mx <= nxImg; mx++ {
					for my := -nyImg; my <= nyImg; my++ {
						dx := float64(ix)*g.Hx - at.X + float64(mx)*g.Lx()
						dy := float64(iy)*g.Hy - at.Y + float64(my)*g.Ly()
						r2 := dx*dx + dy*dy + dz*dz
						if r2 > rc2 {
							continue
						}
						r := math.Sqrt(r2)
						val += ch.Radial(r) * ch.Angular(m, dx, dy, dz, r)
						found = true
					}
				}
				if !found || val == 0 {
					continue
				}
				s := &proj.Supp[off+1]
				s.Idx = append(s.Idx, int32(g.Index(ix, iy, izc)))
				s.Val = append(s.Val, val*dvw)
			}
		}
	}
	return proj, nil
}

// InterfaceThickness returns the number of boundary z planes through which
// H+ (equivalently H-) reads its neighbour-cell input: the FD stencil
// half-width plus any projector support that crosses a cell boundary. The
// OBM baseline's interface blocks must span this many planes to capture the
// full coupling.
func (op *Operator) InterfaceThickness() int {
	g := op.G
	plane := g.PlaneSize()
	t := op.St.Nf
	grow := func(p int) {
		if p+1 > t {
			t = p + 1
		}
	}
	for _, pr := range op.Projs {
		hasM := len(pr.Supp[0].Idx) > 0 // offset -1
		hasP := len(pr.Supp[2].Idx) > 0 // offset +1
		// Columns of B_R: p^{+1} supports (measured from the cell bottom)
		// and, when p^{-1} exists, the home support p^0 from the bottom.
		for _, idx := range pr.Supp[2].Idx {
			grow(int(idx) / plane)
		}
		if hasM {
			for _, idx := range pr.Supp[1].Idx {
				grow(int(idx) / plane)
			}
		}
		// Columns of B_L: p^{-1} supports measured from the cell top and,
		// when p^{+1} exists, the home support from the top.
		for _, idx := range pr.Supp[0].Idx {
			grow(g.Nz - 1 - int(idx)/plane)
		}
		if hasP {
			for _, idx := range pr.Supp[1].Idx {
				grow(g.Nz - 1 - int(idx)/plane)
			}
		}
	}
	if t > g.Nz {
		t = g.Nz
	}
	return t
}

// Diag returns the kinetic diagonal (the d=0 stencil term of all three
// directions), exposed for the distributed operator in package dist.
func (op *Operator) Diag() float64 { return op.diag }

// Kx, Ky, Kz return the signed kinetic tail coefficient -0.5*C[d]/h^2 of
// offset d in the given direction.
func (op *Operator) Kx(d int) float64 { return op.kx[d] }
func (op *Operator) Ky(d int) float64 { return op.ky[d] }
func (op *Operator) Kz(d int) float64 { return op.kz[d] }

// NeighborX returns the periodic wrapped index tables (ix+d, ix-d) for
// offset d.
func (op *Operator) NeighborX(d int) (plus, minus []int32) {
	return op.xp[d-1], op.xm[d-1]
}

// NeighborY returns the periodic wrapped index tables (iy+d, iy-d) for
// offset d.
func (op *Operator) NeighborY(d int) (plus, minus []int32) {
	return op.yp[d-1], op.ym[d-1]
}

// MemoryBytes estimates the resident bytes of the matrix-free operator:
// local potential, neighbour tables and projector supports. This is the
// O(N) footprint the paper contrasts with the OBM baseline's O(N^2).
func (op *Operator) MemoryBytes() int64 {
	var b int64
	b += int64(len(op.VLoc)) * 8
	for _, p := range op.Projs {
		for _, s := range p.Supp {
			b += int64(len(s.Idx))*4 + int64(len(s.Val))*8
		}
	}
	for d := range op.xp {
		b += int64(len(op.xp[d])+len(op.xm[d])+len(op.yp[d])+len(op.ym[d])) * 4
	}
	b += int64(len(op.kx)+len(op.ky)+len(op.kz)) * 8
	return b
}

// FlopsPerApply estimates floating-point operations of one H0 application
// (used by the cluster performance model): stencil tails in 3 directions
// plus projector work.
func (op *Operator) FlopsPerApply() float64 {
	n := float64(op.N())
	nf := float64(op.St.Nf)
	fl := n * (3*nf*2*8 + 8) // complex mul-add per tail pair, diag
	for _, p := range op.Projs {
		for _, s := range p.Supp {
			fl += float64(len(s.Idx)) * 16
		}
	}
	return fl
}
