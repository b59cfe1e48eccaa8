package core

import (
	"testing"

	"cbs/internal/bandstructure"
	"cbs/internal/operator"
	"cbs/internal/qep"
)

// TestSoAKernelsMatchAoSBitwise: the split-complex path is the same
// arithmetic as the interleaved path in the same order, so the whole Solve —
// eigenvalues, vectors, residuals, iteration counts — must be bit-identical
// between the two. The solver picks the layout from the backend it is
// handed, so the interleaved reference is reached by hiding the FD
// operator's concrete type behind the operator.Backend interface.
func TestSoAKernelsMatchAoSBitwise(t *testing.T) {
	op := smallAl(t, 8)
	ef, err := bandstructure.FermiLevel(op, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	portable := qep.NewBackend(struct{ operator.Backend }{op}, ef)
	if portable.Op != nil {
		t.Fatal("wrapped backend still exposes the FD operator")
	}
	aos, err := Solve(portable, opts)
	if err != nil {
		t.Fatal(err)
	}
	soaRes, err := Solve(qep.New(op, ef), opts)
	if err != nil {
		t.Fatal(err)
	}
	if aos.Rank != soaRes.Rank {
		t.Fatalf("rank differs: aos %d, soa %d", aos.Rank, soaRes.Rank)
	}
	if len(aos.AllPairs) != len(soaRes.AllPairs) {
		t.Fatalf("pair count differs: aos %d, soa %d", len(aos.AllPairs), len(soaRes.AllPairs))
	}
	for i := range aos.AllPairs {
		pa, ps := aos.AllPairs[i], soaRes.AllPairs[i]
		if pa.Lambda != ps.Lambda || pa.Residual != ps.Residual {
			t.Errorf("pair %d differs: aos (%v, %g), soa (%v, %g)", i, pa.Lambda, pa.Residual, ps.Lambda, ps.Residual)
		}
		for j := range pa.Psi {
			if pa.Psi[j] != ps.Psi[j] {
				t.Fatalf("pair %d component %d differs: %v vs %v", i, j, pa.Psi[j], ps.Psi[j])
			}
		}
	}
	for j := range aos.Points {
		pa, ps := aos.Points[j], soaRes.Points[j]
		if pa.Iterations != ps.Iterations || pa.Converged != ps.Converged {
			t.Errorf("point %d stats differ: aos %+v, soa %+v", j, pa, ps)
		}
	}
	if aos.MatVecs != soaRes.MatVecs {
		t.Errorf("matvec count differs: aos %d, soa %d", aos.MatVecs, soaRes.MatVecs)
	}
}
