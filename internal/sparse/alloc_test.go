package sparse

import (
	"math/rand"
	"testing"
)

// TestApplyZeroAlloc pins the stored-form apply kernel at zero allocations
// per call, matching the matrix-free operators they are benchmarked against.
func TestApplyZeroAlloc(t *testing.T) {
	op := testOperator(t)
	blocks, err := FromOperator(op)
	if err != nil {
		t.Fatal(err)
	}
	n := op.N()
	rng := rand.New(rand.NewSource(3))
	v := randVec(rng, n)
	out := make([]complex128, n)
	mats := []struct {
		name string
		m    *CSR
	}{{"H0", blocks.H0}, {"H+", blocks.HP}, {"H-", blocks.HM}}
	for _, c := range mats {
		m := c.m
		if allocs := testing.AllocsPerRun(5, func() { m.Apply(v, out) }); allocs != 0 {
			t.Errorf("%s: Apply allocates %.0f times per call, want 0", c.name, allocs)
		}
	}
}
