package ssm

import (
	"testing"

	"cbs/internal/soa"
	"cbs/internal/zlinalg"
)

// TestAccumulatorZeroAlloc pins the moment accumulation paths at zero
// allocations per call: the accumulator is shared by every worker of the
// parallel layers, so an allocation here would run once per solved column
// per quadrature point.
func TestAccumulatorZeroAlloc(t *testing.T) {
	const n, nrh, nmm = 32, 6, 2
	acc, err := NewAccumulator(n, nrh, nmm)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]complex128, n)
	for i := range y {
		y[i] = complex(float64(i%5)-2, float64(i%3)-1)
	}
	const nb = 4
	blk := soa.NewBlock[float64](n, nb)
	for i := range blk.Re {
		blk.Re[i], blk.Im[i] = float64(i%7)-3, float64(i%4)-2
	}
	m := zlinalg.NewMatrix(n, nrh)
	for i := range m.Data {
		m.Data[i] = complex(float64(i%9)-4, 0.5)
	}
	z, w := complex(0.8, 0.1), complex(0.2, -0.3)
	if allocs := testing.AllocsPerRun(5, func() { acc.Add(z, w, 2, y) }); allocs != 0 {
		t.Errorf("Add allocates %.0f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { acc.AddPlanes(z, w, 1, blk) }); allocs != 0 {
		t.Errorf("AddPlanes allocates %.0f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { acc.AddBlock(z, w, m) }); allocs != 0 {
		t.Errorf("AddBlock allocates %.0f times per call, want 0", allocs)
	}
}
