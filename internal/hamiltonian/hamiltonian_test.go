package hamiltonian

import (
	"math"
	"math/cmplx"
	"testing"

	"cbs/internal/lattice"
	"cbs/internal/operator"
	"cbs/internal/zlinalg"
)

// emptyCell builds an operator for a cell with no atoms (free particle).
func emptyCell(t *testing.T, nx, ny, nz int, lx, ly, lz float64) *Operator {
	t.Helper()
	st := &lattice.Structure{Name: "empty", Lx: lx, Ly: ly, Lz: lz}
	op, err := Build(st, Config{Nx: nx, Ny: ny, Nz: nz, Nf: 4})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func alCell(t *testing.T, n int) *Operator {
	t.Helper()
	st, err := lattice.AlBulk100(1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Build(st, Config{Nx: n, Ny: n, Nz: n, Nf: 4})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestFreeParticlePlaneWave checks the discrete dispersion exactly: a
// discrete plane wave is an exact eigenvector of the FD Bloch Hamiltonian
// with eigenvalue -1/2 * sum_dir (C0 + 2 sum_d C_d cos(d theta)) / h^2.
func TestFreeParticlePlaneWave(t *testing.T) {
	op := emptyCell(t, 6, 5, 8, 6.0, 5.0, 8.0)
	g := op.G
	cases := []struct {
		nx, ny int
		thz    float64
	}{
		{0, 0, 0},
		{1, 0, 0.3},
		{2, 3, -0.7},
		{5, 4, 2.1},
	}
	for _, c := range cases {
		thx := 2 * math.Pi * float64(c.nx) / float64(g.Nx)
		thy := 2 * math.Pi * float64(c.ny) / float64(g.Ny)
		thz := c.thz
		v := make([]complex128, g.N())
		for iz := 0; iz < g.Nz; iz++ {
			for iy := 0; iy < g.Ny; iy++ {
				for ix := 0; ix < g.Nx; ix++ {
					ph := thx*float64(ix) + thy*float64(iy) + thz*float64(iz)
					v[g.Index(ix, iy, iz)] = cmplx.Exp(complex(0, ph))
				}
			}
		}
		lambda := cmplx.Exp(complex(0, thz*float64(g.Nz)))
		out := make([]complex128, g.N())
		operator.NewVectors(op).Bloch(lambda, v, out)

		disp := func(theta, h float64) float64 {
			s := op.St.C[0]
			for d := 1; d <= op.St.Nf; d++ {
				s += 2 * op.St.C[d] * math.Cos(float64(d)*theta)
			}
			return -0.5 * s / (h * h)
		}
		want := disp(thx, g.Hx) + disp(thy, g.Hy) + disp(thz, g.Hz)
		for i := range out {
			if cmplx.Abs(out[i]-complex(want, 0)*v[i]) > 1e-11*(1+math.Abs(want)) {
				t.Fatalf("case %+v: plane wave is not an eigenvector: out[%d] = %v, want %v",
					c, i, out[i], complex(want, 0)*v[i])
			}
		}
	}
}

func TestBlocksHermitianStructure(t *testing.T) {
	op := alCell(t, 8)
	h0, hp, hm := operator.DenseBlocks(op)
	if !h0.IsHermitian(1e-11) {
		t.Error("H0 is not Hermitian")
	}
	if d := zlinalg.Sub(hm, hp.ConjTranspose()).MaxAbs(); d > 1e-12 {
		t.Errorf("||H- - H+^dagger|| = %g", d)
	}
	// H+ must be nonzero (Laplacian tails) but much sparser than H0.
	if hp.MaxAbs() == 0 {
		t.Error("H+ is identically zero")
	}
	// Bloch Hamiltonian at |lambda| = 1 is Hermitian.
	lam := cmplx.Exp(complex(0, 0.37))
	hk := operator.DenseBloch(op, lam)
	if !hk.IsHermitian(1e-10) {
		t.Error("H(k) not Hermitian for |lambda| = 1")
	}
}

func TestPeriodicConsistency(t *testing.T) {
	// At lambda = 1 the Bloch Hamiltonian equals the fully z-periodic
	// single-cell Hamiltonian, whose kinetic part annihilates constants
	// across the wrap: on an empty cell H(1) v = 0 for constant v.
	empty := emptyCell(t, 8, 8, 8, 7.0, 7.0, 7.0)
	ve := make([]complex128, empty.N())
	for i := range ve {
		ve[i] = 1
	}
	oute := make([]complex128, empty.N())
	operator.NewVectors(empty).Bloch(1, ve, oute)
	for i := range oute {
		if cmplx.Abs(oute[i]) > 1e-11 {
			t.Fatalf("free H(1) does not annihilate constants: %v", oute[i])
		}
	}
}

// TestHermitianResidualProbe checks the Hermiticity of H(lambda) at
// |lambda| = 1 without dense assembly: |<u, H v> - conj(<v, H u>)| for two
// deterministic probe vectors.
func TestHermitianResidualProbe(t *testing.T) {
	op := alCell(t, 8)
	n := op.N()
	u, v := make([]complex128, n), make([]complex128, n)
	for i := range u {
		u[i] = complex(float64((i*37)%101)/101, float64((i*13)%89)/89)
		v[i] = complex(float64((i*61)%127)/127, float64((i*29)%97)/97)
	}
	hu, hv := make([]complex128, n), make([]complex128, n)
	x := operator.NewVectors(op)
	lambda := cmplx.Exp(complex(0, 1.1))
	x.Bloch(lambda, u, hu)
	x.Bloch(lambda, v, hv)
	if r := cmplx.Abs(zlinalg.Dot(u, hv) - cmplx.Conj(zlinalg.Dot(v, hu))); r > 1e-9 {
		t.Errorf("Hermitian probe residual %g", r)
	}
}

func TestProjectorsSplitAcrossCells(t *testing.T) {
	// Al(100) has an atom at z=0 whose projector support must spill into
	// the previous cell (offset -1).
	op := alCell(t, 10)
	foundSplit := false
	for _, p := range op.Projs {
		if len(p.Supp[0].Idx) > 0 || len(p.Supp[2].Idx) > 0 {
			foundSplit = true
			break
		}
	}
	if !foundSplit {
		t.Error("no projector spans a cell boundary; boundary splitting is untested by construction")
	}
	// All indices must be in range.
	for _, p := range op.Projs {
		for _, s := range p.Supp {
			for _, idx := range s.Idx {
				if idx < 0 || int(idx) >= op.N() {
					t.Fatalf("projector index %d out of range", idx)
				}
			}
		}
	}
}

func TestLocalPotentialAttractiveAtNuclei(t *testing.T) {
	op := alCell(t, 10)
	// The potential must be negative at the atom sites.
	g := op.G
	at := op.Structure.Atoms[0]
	ix := int(math.Round(at.X/g.Hx)) % g.Nx
	iy := int(math.Round(at.Y/g.Hy)) % g.Ny
	iz := int(math.Round(at.Z/g.Hz)) % g.Nz
	if v := op.VLoc[g.Index(ix, iy, iz)]; v >= 0 {
		t.Errorf("VLoc at nucleus = %g, want negative", v)
	}
}

func TestBuildValidation(t *testing.T) {
	st, _ := lattice.AlBulk100(1)
	if _, err := Build(st, Config{Nx: 8, Ny: 8, Nz: 2, Nf: 4}); err == nil {
		t.Error("Nz < Nf must be rejected")
	}
	bad := &lattice.Structure{Name: "bad", Lx: 10, Ly: 10, Lz: 2,
		Atoms: []lattice.Atom{{Species: "Al", X: 5, Y: 5, Z: 1}}}
	if _, err := Build(bad, Config{Nx: 8, Ny: 8, Nz: 8, Nf: 4}); err == nil {
		t.Error("projector cutoff exceeding the cell must be rejected")
	}
	unk := &lattice.Structure{Name: "unknown", Lx: 10, Ly: 10, Lz: 10,
		Atoms: []lattice.Atom{{Species: "Xx", X: 5, Y: 5, Z: 5}}}
	if _, err := Build(unk, Config{Nx: 8, Ny: 8, Nz: 8, Nf: 4}); err == nil {
		t.Error("unknown species must be rejected")
	}
}

func TestMemoryAndFlopsAccounting(t *testing.T) {
	op := alCell(t, 8)
	if op.MemoryBytes() <= int64(op.N()*8) {
		t.Error("memory estimate implausibly small")
	}
	if op.FlopsPerApply() <= float64(op.N()) {
		t.Error("flops estimate implausibly small")
	}
}
