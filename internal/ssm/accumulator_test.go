package ssm

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"cbs/internal/soa"
)

// TestAddPlanesMatchesAdd: accumulating a sub-block from split planes must
// equal accumulating its columns one at a time with Add, bit for bit.
func TestAddPlanesMatchesAdd(t *testing.T) {
	n, nrh, nmm := 13, 6, 3
	col0, nb := 2, 3
	rng := rand.New(rand.NewSource(4))
	y := soa.NewBlock[float64](n, nb)
	for i := range y.Re {
		y.Re[i], y.Im[i] = rng.Float64()*2-1, rng.Float64()*2-1
	}
	z := complex(1.2, -0.7)
	w := complex(0.3, 0.9)

	blocked, err := NewAccumulator(n, nrh, nmm)
	if err != nil {
		t.Fatal(err)
	}
	blocked.AddPlanes(z, w, col0, y)

	serial, err := NewAccumulator(n, nrh, nmm)
	if err != nil {
		t.Fatal(err)
	}
	col := make([]complex128, n)
	for c := 0; c < nb; c++ {
		for i := 0; i < n; i++ {
			col[i] = complex(y.Re[i*nb+c], y.Im[i*nb+c])
		}
		serial.Add(z, w, col0+c, col)
	}

	mb := blocked.Moments()
	ms := serial.Moments()
	for k := range mb {
		for i := range mb[k].Data {
			if mb[k].Data[i] != ms[k].Data[i] {
				t.Fatalf("moment %d entry %d: planes %v, per column %v", k, i, mb[k].Data[i], ms[k].Data[i])
			}
		}
	}
}

// TestAddPlanesValidation: shape errors must panic, matching Add.
func TestAddPlanesValidation(t *testing.T) {
	a, err := NewAccumulator(5, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []func(){
		func() { a.AddPlanes(1, 1, 0, soa.NewBlock[float64](4, 2)) }, // wrong length
		func() { a.AddPlanes(1, 1, 3, soa.NewBlock[float64](5, 2)) }, // columns out of range
		func() { a.AddPlanes(1, 1, -1, soa.NewBlock[float64](5, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid AddPlanes did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestScaleColumns: per-column rescaling must touch exactly the targeted
// columns of every moment block (the degradation renormalization hook).
func TestScaleColumns(t *testing.T) {
	a, err := NewAccumulator(3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]complex128, 3)
	for col := 0; col < 3; col++ {
		for i := range y {
			y[i] = complex(float64(col+1), float64(i))
		}
		a.Add(complex(0.5, 0.25), complex(1, 0), col, y)
	}
	before := make([][]complex128, len(a.Moments()))
	for k, m := range a.Moments() {
		before[k] = append([]complex128(nil), m.Data...)
	}
	a.ScaleColumns([]float64{1, 2.5, 1})
	for k, m := range a.Moments() {
		for i := 0; i < 3; i++ {
			for c := 0; c < 3; c++ {
				want := before[k][i*3+c]
				if c == 1 {
					want *= 2.5
				}
				if got := m.Data[i*3+c]; cmplx.Abs(got-want) > 1e-15 {
					t.Fatalf("moment %d (%d,%d): %v, want %v", k, i, c, got, want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong-length ScaleColumns did not panic")
		}
	}()
	a.ScaleColumns([]float64{1})
}
