package soa

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// jacobiQuadsArms runs JacobiDots and JacobiRotate over quads through the
// scalar bodies or the asm from a copy of w0 whose planes sit inside NaN
// margins, returning the block, the quads after both and the planes with
// their margins.
func jacobiQuadsArms(w0 *Block[float64], quads0 []JacobiQuad, asm bool) (*Block[float64], []JacobiQuad, [2][]float64) {
	w, back := guardedBlock(rand.New(rand.NewSource(0)), w0.n, w0.nb, jacobiMargin)
	copy(w.Re, w0.Re)
	copy(w.Im, w0.Im)
	quads := append([]JacobiQuad(nil), quads0...)
	if asm {
		jacobiDotsAVX2(w.Re, w.Im, w.nb, &quads[0], len(quads))
		jacobiRotateAVX2(w.Re, w.Im, w.nb, &quads[0], len(quads))
	} else {
		jacobiDotsScalar(w.Re, w.Im, w.nb, quads)
		jacobiRotateScalar(w.Re, w.Im, w.nb, quads)
	}
	return w, quads, back
}

// jacobiMargin is the NaN margin around the planes of jacobiQuadsArms: a
// quad's vector reaches at most three columns past its group.
const jacobiMargin = 4

// checkJacobiLanes builds the quads of anti-diagonal s of an m x nc block
// of simdFill data, the last one partial when the diagonal's pair count is
// not a multiple of four, with random rotations and masks, freezes one
// lane with its two columns poisoned, and requires both arms to agree bit
// for bit on the sums of the finite lanes and on the whole block, the
// frozen columns coming back bit-unchanged.
func checkJacobiLanes(t *testing.T, name string, rng *rand.Rand, m, nc, s int) {
	t.Helper()
	var quads []JacobiQuad
	for p, last := max(0, s-nc+1), (s-1)/2; p <= last; p += 4 {
		q := JacobiQuad{P: p, Q: s - p, Lanes: min(4, last-p+1)}
		for k := range q.Mask {
			th, ph := rng.Float64()*math.Pi, rng.Float64()*2*math.Pi
			q.Cs[k], q.SnRe[k], q.SnIm[k] = math.Cos(th), math.Sin(th)*math.Cos(ph), math.Sin(th)*math.Sin(ph)
			if rng.Intn(4) > 0 {
				q.Mask[k] = ^uint64(0)
			}
		}
		quads = append(quads, q)
	}
	if len(quads) == 0 || !HasAVX2 {
		return
	}
	w := colsBlock(rng, m, nc)
	fq := rng.Intn(len(quads))
	fk := rng.Intn(quads[fq].Lanes)
	quads[fq].Mask[fk] = 0
	poisonCol(quads[fq].P+fk, w)
	poisonCol(quads[fq].Q-fk, w)

	want, wq, _ := jacobiQuadsArms(w, quads, false)
	got, gq, back := jacobiQuadsArms(w, quads, true)
	eqBits(t, name+" W/re", got.Re, want.Re)
	eqBits(t, name+" W/im", got.Im, want.Im)
	checkMargins(t, name, back, jacobiMargin)
	for _, c := range []int{quads[fq].P + fk, quads[fq].Q - fk} {
		for i := 0; i < m; i++ {
			if math.Float64bits(got.Re[i*nc+c]) != math.Float64bits(w.Re[i*nc+c]) ||
				math.Float64bits(got.Im[i*nc+c]) != math.Float64bits(w.Im[i*nc+c]) {
				t.Fatalf("%s: frozen column %d changed at row %d", name, c, i)
			}
		}
	}
	for j := range gq {
		for k := 0; k < gq[j].Lanes; k++ {
			if j == fq && k == fk {
				continue // NaN sums of the poisoned pair
			}
			g := [4]float64{gq[j].App[k], gq[j].Aqq[k], gq[j].ApqRe[k], gq[j].ApqIm[k]}
			ws := [4]float64{wq[j].App[k], wq[j].Aqq[k], wq[j].ApqRe[k], wq[j].ApqIm[k]}
			eqBits(t, fmt.Sprintf("%s quad %d lane %d sums", name, j, k), g[:], ws[:])
		}
	}
}

// FuzzLaneKernels: the column-lane kernels of the Krylov step (AlphaCols,
// BetaCols, DotCols) and the Jacobi pair kernels (JacobiDots,
// JacobiRotate) agree with their scalar siblings bit for bit at any row
// count, any block width 1..40 and any lane masks the fuzzer finds, and a
// masked-off lane holding NaN or Inf comes back unchanged.
func FuzzLaneKernels(f *testing.F) {
	f.Add(uint16(1000), uint8(15), int64(1)) // n 1000, nb 16 (solve_al)
	f.Add(uint16(1000), uint8(3), int64(2))  // nb 4 (sweep_al)
	f.Add(uint16(56), uint8(7), int64(3))    // nb 8 on a TB slab
	f.Add(uint16(3), uint8(0), int64(4))     // one column
	f.Add(uint16(37), uint8(39), int64(5))   // nb 40: chunks of 8, 4 and 1
	f.Add(uint16(0), uint8(12), int64(6))    // no rows
	f.Fuzz(func(t *testing.T, n uint16, nb uint8, seed int64) {
		rows, cols := int(n%1100), int(nb%40)+1
		rng := rand.New(rand.NewSource(seed))
		name := fmt.Sprintf("n=%d nb=%d seed=%d", rows, cols, seed)
		k, a, b, frozen := krylovSet(rng, rows, cols)
		checkLaneKernels(t, name, k, a, b, frozen)
		if HasAVX2 {
			x, y := colsBlock(rng, rows, cols), colsBlock(rng, rows, cols)
			wantRe, wantIm := simdFill(rng, cols), simdFill(rng, cols)
			gotRe, gotIm := simdFill(rng, cols), simdFill(rng, cols)
			dotColsScalar(wantRe, wantIm, x.Re, x.Im, y.Re, y.Im)
			dotColsAVX2(gotRe, gotIm, x.Re, x.Im, y.Re, y.Im)
			eqBits(t, name+" dotCols/re", gotRe, wantRe)
			eqBits(t, name+" dotCols/im", gotIm, wantIm)
		}
		m, nc := rows%150+1, cols+1
		checkJacobiLanes(t, name+" jacobi", rng, m, nc, rng.Intn(2*nc-3)+1)
	})
}

// TestJacobiLanesBitIdentical: the Jacobi pair kernels against their
// scalar siblings on every anti-diagonal of the solve_al and transport_tb
// Hankel widths, on a wide short block, and on blocks narrower than two
// quads, whose partial quads' vectors reach past the planes.
func TestJacobiLanesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, sh := range [][2]int{{128, 128}, {56, 56}, {3, 40}, {2, 2}, {1, 3}, {5, 5}, {4, 7}, {9, 9}} {
		for s := 1; s <= 2*sh[1]-3; s++ {
			checkJacobiLanes(t, fmt.Sprintf("%dx%d s=%d", sh[0], sh[1], s), rng, sh[0], sh[1], s)
		}
	}
}

// TestJacobiGuards: quads outside the block, overlapping column groups and
// a partial quad before the last are refused before any kernel runs.
func TestJacobiGuards(t *testing.T) {
	w := NewBlock[float64](5, 20)
	ok := []JacobiQuad{{P: 0, Q: 19, Lanes: 4}, {P: 4, Q: 15, Lanes: 2}}
	JacobiDots(w, ok)
	JacobiRotate(w, ok)
	for name, qs := range map[string][]JacobiQuad{
		"column past nb":  {{P: 0, Q: 20, Lanes: 4}},
		"negative column": {{P: -1, Q: 19, Lanes: 4}},
		"groups overlap":  {{P: 4, Q: 10, Lanes: 4}},
		"no lanes":        {{P: 0, Q: 19, Lanes: 0}},
		"partial first":   {{P: 0, Q: 19, Lanes: 3}, {P: 4, Q: 15, Lanes: 4}},
	} {
		expectPanic(t, name+" dots", func() { JacobiDots(w, qs) })
		expectPanic(t, name+" rotate", func() { JacobiRotate(w, qs) })
	}
}
