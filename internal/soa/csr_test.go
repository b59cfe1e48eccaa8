package soa

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomCSR is an n x n table of simdFill values in which about one row in
// four is empty and about one entry in three repeats an earlier column of
// its row.
func randomCSR(rng *rand.Rand, n int) *CSR {
	var es []CSREntry
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			continue
		}
		k := rng.Intn(6) + 1
		first := len(es)
		for e := 0; e < k; e++ {
			c := rng.Intn(n)
			if e > 0 && rng.Intn(3) == 0 {
				c = es[first+rng.Intn(e)].Col
			}
			es = append(es, CSREntry{Row: i, Col: c, Val: simdFill(rng, 1)[0]})
		}
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return NewCSR(n, es)
}

// checkCSRKernels runs both kernels through the asm and the scalar sibling
// on an n x n table at block width nb, with the planes inside NaN
// margins, and requires the outputs bit for bit equal and nothing written
// outside them.
func checkCSRKernels(t *testing.T, name string, rng *rand.Rand, n, nb int) {
	t.Helper()
	if !HasAVX2 {
		return
	}
	a := randomCSR(rng, n)
	d := simdFill(rng, n)
	shift, cr, ci := rng.NormFloat64(), rng.NormFloat64(), simdFill(rng, 1)[0]
	v, _ := guardedBlock(rng, n, nb, 8)
	prior := colsBlock(rng, n, nb)
	for _, k := range []struct {
		kernel string
		run    func(out *Block[float64], asm bool)
	}{
		{"shifted", func(out *Block[float64], asm bool) {
			if asm {
				csrShiftedAVX2(out.Re, out.Im, v.Re, v.Im, nb, shift, d, a)
			} else {
				csrShiftedScalar(out.Re, out.Im, v.Re, v.Im, nb, shift, d, a)
			}
		}},
		{"accum", func(out *Block[float64], asm bool) {
			if asm {
				csrAccumAVX2(out.Re, out.Im, v.Re, v.Im, nb, cr, ci, a)
			} else {
				csrAccumScalar(out.Re, out.Im, v.Re, v.Im, nb, cr, ci, a)
			}
		}},
	} {
		want := cloneBlock(prior)
		k.run(want, false)
		got, back := guardedBlock(rng, n, nb, 8)
		copy(got.Re, prior.Re)
		copy(got.Im, prior.Im)
		k.run(got, true)
		eqBits(t, name+" "+k.kernel+"/re", got.Re, want.Re)
		eqBits(t, name+" "+k.kernel+"/im", got.Im, want.Im)
		checkMargins(t, name+" "+k.kernel, back, 8)
	}
}

// TestCSRKernelsBitIdentical: ShiftedCSR and AccumCSR against their scalar
// siblings at every block width 1..17, on tables with empty rows and
// repeated columns.
func TestCSRKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 2, 7, 56} {
		for nb := 1; nb <= 17; nb++ {
			checkCSRKernels(t, fmt.Sprintf("n=%d nb=%d", n, nb), rng, n, nb)
		}
	}
}

// FuzzCSRKernels: the CSR kernels agree with their scalar siblings bit for
// bit at any size, any block width 1..40 and any table the seed draws.
func FuzzCSRKernels(f *testing.F) {
	f.Add(uint8(56), uint8(7), int64(1)) // the 8x7 slab at nb 8
	f.Add(uint8(1), uint8(0), int64(2))  // one site, one column
	f.Add(uint8(15), uint8(16), int64(3))
	f.Add(uint8(0), uint8(3), int64(4)) // no rows
	f.Fuzz(func(t *testing.T, n, nb uint8, seed int64) {
		size, width := int(n%120), int(nb%40)+1
		checkCSRKernels(t, fmt.Sprintf("n=%d nb=%d seed=%d", size, width, seed),
			rand.New(rand.NewSource(seed)), size, width)
	})
}

// TestNewCSRRowOrder: each row keeps its entries in input order, repeats
// included, whatever the rows' interleaving.
func TestNewCSRRowOrder(t *testing.T) {
	a := NewCSR(4, []CSREntry{{2, 1, 1}, {0, 3, 2}, {2, 0, 3}, {0, 3, 4}, {2, 1, 5}})
	wantPtr := []int{0, 2, 2, 5, 5}
	wantEnts := []csrEnt{{3, 2}, {3, 4}, {1, 1}, {0, 3}, {1, 5}}
	if fmt.Sprint(a.ptr) != fmt.Sprint(wantPtr) || fmt.Sprint(a.ents) != fmt.Sprint(wantEnts) {
		t.Fatalf("NewCSR = %v %v, want %v %v", a.ptr, a.ents, wantPtr, wantEnts)
	}
}

// TestCSRGuards: mis-shaped blocks, a missing diagonal, aliased planes and
// out-of-range entries are refused before any kernel runs.
func TestCSRGuards(t *testing.T) {
	a := NewCSR(3, []CSREntry{{0, 1, 1}})
	v, out := NewBlock[float64](3, 2), NewBlock[float64](3, 2)
	d := make([]float64, 3)
	ShiftedCSR(out, v, 0, d, a)
	AccumCSR(out, v, 1, 0, a)
	for name, fn := range map[string]func(){
		"short out":      func() { AccumCSR(NewBlock[float64](2, 2), v, 1, 0, a) },
		"short v":        func() { AccumCSR(out, NewBlock[float64](2, 2), 1, 0, a) },
		"width mismatch": func() { AccumCSR(out, NewBlock[float64](3, 3), 1, 0, a) },
		"aliased":        func() { AccumCSR(out, out, 1, 0, a) },
		"short diagonal": func() { ShiftedCSR(out, v, 0, d[:2], a) },
		"entry row":      func() { NewCSR(3, []CSREntry{{3, 0, 1}}) },
		"entry col":      func() { NewCSR(3, []CSREntry{{0, -1, 1}}) },
	} {
		expectPanic(t, name, fn)
	}
}

// TestCSRKernelsZeroAlloc: both kernels allocate nothing.
func TestCSRKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	a := randomCSR(rng, 56)
	v, out, d := colsBlock(rng, 56, 8), colsBlock(rng, 56, 8), simdFill(rng, 56)
	if n := testing.AllocsPerRun(10, func() {
		ShiftedCSR(out, v, 0.5, d, a)
		AccumCSR(out, v, 0.3, -0.2, a)
	}); n != 0 {
		t.Errorf("%.0f allocations per call pair, want 0", n)
	}
}
