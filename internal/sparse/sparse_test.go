package sparse

import (
	"errors"
	"math/cmplx"
	"math/rand"
	"testing"

	"cbs/internal/hamiltonian"
	"cbs/internal/lattice"
)

func testOperator(t *testing.T) *hamiltonian.Operator {
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

func randVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

// TestStoredMatchesMatrixFree: the CSR + factored-projector form must
// reproduce every block application of the matrix-free operator exactly.
func TestStoredMatchesMatrixFree(t *testing.T) {
	op := testOperator(t)
	blocks, err := FromOperator(op)
	if err != nil {
		t.Fatal(err)
	}
	n := op.N()
	rng := rand.New(rand.NewSource(1))
	v := randVec(rng, n)
	want := make([]complex128, n)
	got := make([]complex128, n)
	cases := []struct {
		name   string
		free   func(v, out []complex128)
		stored func(v, out []complex128)
	}{
		{"H0", op.ApplyH0, blocks.ApplyH0},
		{"H+", op.ApplyHp, blocks.ApplyHp},
		{"H-", op.ApplyHm, blocks.ApplyHm},
	}
	for _, c := range cases {
		c.free(v, want)
		c.stored(v, got)
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("%s: stored and matrix-free applies differ at %d: %v vs %v",
					c.name, i, got[i], want[i])
			}
		}
	}
}

// TestMatrixFreeMemoryAdvantage quantifies the paper's claim #1: the
// stored form costs substantially more memory than the matrix-free
// operator.
func TestMatrixFreeMemoryAdvantage(t *testing.T) {
	op := testOperator(t)
	blocks, err := FromOperator(op)
	if err != nil {
		t.Fatal(err)
	}
	stored := blocks.MemoryBytes()
	free := op.MemoryBytes()
	if stored <= free {
		t.Errorf("stored CSR (%d B) not above matrix-free (%d B)", stored, free)
	}
	// The 9-point 3D stencil alone stores 25 entries per row at 24 B each
	// vs 8 B/row of potential in the matrix-free form.
	if ratio := float64(stored) / float64(free); ratio < 3 {
		t.Errorf("stored/free memory ratio only %.1f; expected the stencil storage to dominate", ratio)
	}
}

func TestCSRStructure(t *testing.T) {
	op := testOperator(t)
	blocks, err := FromOperator(op)
	if err != nil {
		t.Fatal(err)
	}
	n := op.N()
	if int(blocks.H0.RowPtr[n]) != blocks.H0.NNZ() {
		t.Error("row pointer does not close the matrix")
	}
	// Kinetic + local part of H0: at most 3*2*Nf + 1 entries per row.
	maxRow := 0
	for i := 0; i < n; i++ {
		if r := int(blocks.H0.RowPtr[i+1] - blocks.H0.RowPtr[i]); r > maxRow {
			maxRow = r
		}
	}
	if maxRow > 3*2*4+1 {
		t.Errorf("H0 row has %d entries, want <= 25", maxRow)
	}
	// H+ rows only exist near the top boundary: NNZ bounded by
	// plane * Nf * Nf (stencil tails).
	if blocks.HP.NNZ() == 0 || blocks.HM.NNZ() == 0 {
		t.Error("boundary blocks unexpectedly empty")
	}
	if blocks.HP.NNZ() != blocks.HM.NNZ() {
		t.Errorf("H+ and H- have different NNZ: %d vs %d", blocks.HP.NNZ(), blocks.HM.NNZ())
	}
}

// TestNNZOverflowGuard: assembly must fail cleanly (not wrap int32 indices)
// when the entry count exceeds the index range. The ceiling is lowered so
// the regression test does not need 2^31 entries.
func TestNNZOverflowGuard(t *testing.T) {
	op := testOperator(t)
	saved := maxNNZ
	defer func() { maxNNZ = saved }()
	maxNNZ = 100 // far below the ~25 * 288 entries of the test operator's H0
	if _, err := FromOperator(op); err == nil {
		t.Fatal("oversized assembly did not fail")
	} else if !errors.Is(err, ErrNNZOverflow) {
		t.Fatalf("got error %v, want ErrNNZOverflow", err)
	}
	maxNNZ = saved
	if _, err := FromOperator(op); err != nil {
		t.Fatalf("assembly within the ceiling failed: %v", err)
	}
}

func TestCSRApplyValidation(t *testing.T) {
	m := &CSR{N: 3, RowPtr: []int32{0, 0, 0, 0}}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	m.Apply(make([]complex128, 2), make([]complex128, 3))
}
