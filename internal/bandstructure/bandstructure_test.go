package bandstructure

import (
	"math"
	"testing"

	"cbs/internal/hamiltonian"
	"cbs/internal/lattice"
)

func smallAl(t *testing.T) *hamiltonian.Operator {
	t.Helper()
	st, err := lattice.AlBulk100(1)
	if err != nil {
		t.Fatal(err)
	}
	op, err := hamiltonian.Build(st, hamiltonian.Config{Nx: 6, Ny: 6, Nz: 8, Nf: 4})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestBandsRealAndOrdered(t *testing.T) {
	op := smallAl(t)
	ks := UniformK(op, 5)
	bands, err := Bands(op, ks, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != 5 {
		t.Fatalf("%d k points returned", len(bands))
	}
	for i, b := range bands {
		if len(b) != 12 {
			t.Fatalf("k %d: %d bands, want 12", i, len(b))
		}
		for j := 1; j < len(b); j++ {
			if b[j] < b[j-1]-1e-12 {
				t.Errorf("k %d: bands not ascending at %d", i, j)
			}
		}
	}
}

func TestBandsContinuity(t *testing.T) {
	// E_n(k) must vary smoothly with k: adjacent fine-grid samples stay
	// close.
	op := smallAl(t)
	ks := UniformK(op, 9)
	bands, err := Bands(op, ks, 6)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 6; n++ {
		for i := 1; i < len(ks); i++ {
			if d := math.Abs(bands[i][n] - bands[i-1][n]); d > 0.2 {
				t.Errorf("band %d jumps by %g hartree between k samples %d-%d", n, d, i-1, i)
			}
		}
	}
}

func TestTimeReversalSymmetry(t *testing.T) {
	// E_n(k) = E_n(-k) for our real Hamiltonian.
	op := smallAl(t)
	a := op.G.Lz()
	k := 0.3 * math.Pi / a
	plus, err := Bands(op, []float64{k}, 8)
	if err != nil {
		t.Fatal(err)
	}
	minus, err := Bands(op, []float64{-k}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for n := range plus[0] {
		if d := math.Abs(plus[0][n] - minus[0][n]); d > 1e-9 {
			t.Errorf("band %d: E(k)-E(-k) = %g", n, d)
		}
	}
}

func TestValenceElectrons(t *testing.T) {
	op := smallAl(t)
	ne, err := ValenceElectrons(op)
	if err != nil {
		t.Fatal(err)
	}
	if ne != 12 { // 4 Al atoms x 3 valence electrons
		t.Errorf("valence electrons = %g, want 12", ne)
	}
}

func TestFermiLevelWithinSpectrum(t *testing.T) {
	op := smallAl(t)
	ef, err := FermiLevel(op, 4)
	if err != nil {
		t.Fatal(err)
	}
	bands, err := Bands(op, UniformK(op, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	lo := bands[0][0]
	hi := bands[0][len(bands[0])-1]
	if ef <= lo || ef >= hi {
		t.Errorf("Fermi level %g outside the band range [%g, %g]", ef, lo, hi)
	}
	// Aluminum is a metal: EF must sit above the lowest few bands.
	if ef <= bands[0][1] {
		t.Errorf("Fermi level %g implausibly low", ef)
	}
}

func TestUniformK(t *testing.T) {
	op := smallAl(t)
	ks := UniformK(op, 5)
	if ks[0] != 0 {
		t.Error("k grid must start at Gamma")
	}
	a := op.G.Lz()
	if math.Abs(ks[4]-math.Pi/a) > 1e-14 {
		t.Error("k grid must end at the zone boundary")
	}
	one := UniformK(op, 1)
	if len(one) != 1 || one[0] != 0 {
		t.Error("single-point grid should be Gamma")
	}
}
