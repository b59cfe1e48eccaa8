package qep

import (
	"testing"

	"cbs/internal/soa"
)

// TestApplyBlockZeroAlloc pins the scratch-free contract of the plane P(z)
// block apply every solve runs: unlike the single-vector Apply, it folds
// the contour shifts into the accumulate kernels and must never touch the
// heap.
func TestApplyBlockZeroAlloc(t *testing.T) {
	p := testProblem(t)
	n := p.Dim()
	const nb = 6
	v := soa.NewBlock[float64](n, nb)
	out := soa.NewBlock[float64](n, nb)
	for i := range v.Re {
		v.Re[i], v.Im[i] = float64(i%7)-3, float64(i%5)-2
	}
	z := complex(0.9, 0.3)
	if allocs := testing.AllocsPerRun(5, func() { ApplyBlockSoA(p, p.B, z, v, out) }); allocs != 0 {
		t.Errorf("ApplyBlockSoA allocates %.0f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { ApplyDaggerBlockSoA(p, p.B, z, v, out) }); allocs != 0 {
		t.Errorf("ApplyDaggerBlockSoA allocates %.0f times per call, want 0", allocs)
	}
}
