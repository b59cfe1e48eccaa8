package soa

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// periodicTables are the wrap tables of a periodic axis of n points — what
// the Hamiltonian hands NewStencil. n < nf wraps more than once.
func periodicTables(n, nf int) (plus, minus [][]int32) {
	for d := 1; d <= nf; d++ {
		p, m := make([]int32, n), make([]int32, n)
		for i := range p {
			p[i] = int32((i + d) % n)
			m[i] = int32(((i-d)%n + n) % n)
		}
		plus, minus = append(plus, p), append(minus, m)
	}
	return plus, minus
}

// randomTables are arbitrary in-range neighbour tables: the kernels are
// table-driven and must not assume the periodic pattern.
func randomTables(rng *rand.Rand, n, nf int) (plus, minus [][]int32) {
	for d := 0; d < nf; d++ {
		p, m := make([]int32, n), make([]int32, n)
		for i := range p {
			p[i], m[i] = int32(rng.Intn(n)), int32(rng.Intn(n))
		}
		plus, minus = append(plus, p), append(minus, m)
	}
	return plus, minus
}

// guardedBlock is an n x nb block of simdFill data whose planes sit inside
// NaN margins: a kernel that reads past either end of a plane pulls a NaN
// into its sums, one that writes there is caught by checkMargins.
func guardedBlock(rng *rand.Rand, n, nb, margin int) (*Block[float64], [2][]float64) {
	var back [2][]float64
	for p := range back {
		back[p] = make([]float64, n*nb+2*margin)
		for i := range back[p] {
			back[p][i] = math.NaN()
		}
		copy(back[p][margin:], simdFill(rng, n*nb))
	}
	return &Block[float64]{Re: back[0][margin : margin+n*nb : margin+n*nb],
		Im: back[1][margin : margin+n*nb : margin+n*nb], n: n, nb: nb}, back
}

func checkMargins(t *testing.T, name string, back [2][]float64, margin int) {
	t.Helper()
	for _, plane := range back {
		for i := 0; i < margin; i++ {
			if !math.IsNaN(plane[i]) || !math.IsNaN(plane[len(plane)-1-i]) {
				t.Fatalf("%s: wrote outside the block", name)
			}
		}
	}
}

func randomCoef(rng *rand.Rand, zeroCz uint) *StencilCoef {
	c := &StencilCoef{Shift: rng.NormFloat64(), Sign: -1, Diag: rng.NormFloat64()}
	for d := 0; d < MaxHalfWidth; d++ {
		c.Cx[d], c.Cy[d], c.Cz[d] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		if zeroCz&(1<<d) != 0 {
			c.Cz[d] = math.Copysign(0, float64(d%2)-0.5) // both zeros drop the term
		}
	}
	return c
}

// checkStencilRow runs row (iz, iy) through both arms from the same prior
// state and requires the scalar arm to write exactly the row, the AVX2 arm
// to agree with it bit for bit on the whole block, and neither to touch the
// margins around the planes.
func checkStencilRow(t *testing.T, name string, rng *rand.Rand, s *Stencil, c *StencilCoef, nb, iz, iy int) {
	t.Helper()
	const margin = 64
	n := s.nx * s.ny * s.nz
	vloc := simdFill(rng, n)
	v, _ := guardedBlock(rng, n, nb, margin)
	want, wantBack := guardedBlock(rng, n, nb, margin)
	prior := cloneBlock(want)
	stencilRowScalar(s, c, vloc, v.Re, v.Im, want.Re, want.Im, nb, iz, iy)
	checkMargins(t, name+" scalar", wantBack, margin)
	lo, hi := (iz*s.ny+iy)*s.nx*nb, (iz*s.ny+iy+1)*s.nx*nb
	for i := range want.Re {
		if i >= lo && i < hi {
			continue
		}
		if math.Float64bits(want.Re[i]) != math.Float64bits(prior.Re[i]) ||
			math.Float64bits(want.Im[i]) != math.Float64bits(prior.Im[i]) {
			t.Fatalf("%s: scalar arm wrote element %d outside row [%d, %d)", name, i, lo, hi)
		}
	}
	if !HasAVX2 {
		return
	}
	got, gotBack := guardedBlock(rng, n, nb, margin)
	copy(got.Re, prior.Re)
	copy(got.Im, prior.Im)
	stencilRowAVX2(s, c, vloc, v.Re, v.Im, got.Re, got.Im, nb, iz, iy)
	checkMargins(t, name+" avx2", gotBack, margin)
	eqBits(t, name+"/re", got.Re, want.Re)
	eqBits(t, name+"/im", got.Im, want.Im)
}

// TestStencilRowBitIdentical: every row of a spread of shapes — the bench
// grid, every row length from 1 to 7 points and 10, axes shorter than the
// half-width, Nz = Nf, every supported nf — at block widths that run every
// tile shape and remainder (four-point tiles at 4, one or two 16-column
// tiles with vector and scalar-lane remainders at 16, 17, 20 and 32, and
// the per-point vectors and scalar lanes at the rest, one vector and a
// three-lane tail at 7), on periodic and on arbitrary tables, with some z
// coefficients zeroed.
func TestStencilRowBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	shapes := []struct{ nx, ny, nz, nf int }{
		{10, 10, 10, 4}, {3, 5, 4, 4}, {1, 1, 1, 1}, {2, 1, 3, 2}, {7, 3, 5, 3},
		{5, 4, 6, 5}, {6, 2, 6, 6}, {9, 2, 8, 7}, {4, 3, 9, 8}, {1, 3, 4, 2},
		{2, 2, 3, 4}, {3, 1, 2, 1}, {4, 2, 3, 3}, {5, 1, 4, 8}, {6, 3, 2, 2},
		{7, 1, 3, 4}, {10, 2, 3, 4},
	}
	for _, sh := range shapes {
		for _, nb := range []int{1, 3, 4, 5, 7, 8, 12, 16, 17, 20, 32} {
			if sh.nx*sh.ny*sh.nz*nb > 20000 {
				continue // the bench grid runs at the sweep's and the paper's widths below
			}
			for _, periodic := range []bool{true, false} {
				xp, xm := randomTables(rng, sh.nx, sh.nf)
				yp, ym := randomTables(rng, sh.ny, sh.nf)
				if periodic {
					xp, xm = periodicTables(sh.nx, sh.nf)
					yp, ym = periodicTables(sh.ny, sh.nf)
				}
				s := NewStencil(sh.nx, sh.ny, sh.nz, sh.nf, xp, xm, yp, ym)
				c := randomCoef(rng, uint(rng.Intn(4)))
				for iz := 0; iz < sh.nz; iz++ {
					for iy := 0; iy < sh.ny; iy++ {
						name := fmt.Sprintf("%dx%dx%d nf=%d nb=%d periodic=%v row (%d,%d)",
							sh.nx, sh.ny, sh.nz, sh.nf, nb, periodic, iz, iy)
						checkStencilRow(t, name, rng, s, c, nb, iz, iy)
					}
				}
			}
		}
	}
	xp, xm := periodicTables(10, 4)
	bench := NewStencil(10, 10, 10, 4, xp, xm, xp, xm)
	for _, nb := range []int{4, 8, 16} {
		for iz := 0; iz < 10; iz++ {
			checkStencilRow(t, fmt.Sprintf("bench grid nb=%d iz=%d", nb, iz), rng, bench, randomCoef(rng, 0), nb, iz, iz)
		}
	}
}

func expectPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

// TestStencilGuards: a table entry, a row or a block outside the shape, and
// an output block aliasing the input, are refused before any kernel runs.
func TestStencilGuards(t *testing.T) {
	xp, xm := periodicTables(4, 2)
	yp, ym := periodicTables(3, 2)
	expectPanic(t, "nf above MaxHalfWidth", func() { NewStencil(4, 3, 9, MaxHalfWidth+1, xp, xm, yp, ym) })
	expectPanic(t, "table count", func() { NewStencil(4, 3, 2, 2, xp[:1], xm, yp, ym) })
	expectPanic(t, "table length", func() { NewStencil(4, 3, 2, 2, yp, ym, yp, ym) })
	badp, _ := periodicTables(4, 2)
	badp[1][2] = 4
	expectPanic(t, "entry out of range", func() { NewStencil(4, 3, 2, 2, badp, xm, yp, ym) })
	badp[1][2] = -1
	expectPanic(t, "negative entry", func() { NewStencil(4, 3, 2, 2, xp, badp, yp, ym) })

	s := NewStencil(4, 3, 2, 2, xp, xm, yp, ym)
	c := &StencilCoef{}
	v, out := NewBlock[float64](24, 3), NewBlock[float64](24, 3)
	vloc := make([]float64, 24)
	StencilRow(s, c, vloc, v, out, 1, 2)
	expectPanic(t, "iz", func() { StencilRow(s, c, vloc, v, out, 2, 0) })
	expectPanic(t, "iy", func() { StencilRow(s, c, vloc, v, out, 0, -1) })
	expectPanic(t, "vloc", func() { StencilRow(s, c, vloc[:23], v, out, 0, 0) })
	expectPanic(t, "block rows", func() { StencilRow(s, c, vloc, NewBlock[float64](23, 3), out, 0, 0) })
	expectPanic(t, "block width", func() { StencilRow(s, c, vloc, v, NewBlock[float64](24, 2), 0, 0) })
	expectPanic(t, "out aliases v", func() { StencilRow(s, c, vloc, v, v, 0, 0) })
	expectPanic(t, "out aliases v rows", func() { StencilRow(s, c, vloc, v, v.Rows(0, 24), 0, 0) })
}

// randomSupport draws a support of the given length over n rows; repeat
// makes every third sample revisit the row before it, so a scatter updates
// one row twice in a row.
func randomSupport(rng *rand.Rand, n, length int, repeat bool) ([]int32, []float64) {
	idx := make([]int32, length)
	for i := range idx {
		idx[i] = int32(rng.Intn(n))
		if repeat && i%3 == 2 {
			idx[i] = idx[i-1]
		}
	}
	return idx, simdFill(rng, length)
}

// TestGatherScatterBitIdentical: chunk widths that exercise the 16-, 4- and
// 1-column passes alone and combined, at column offsets into wider blocks,
// over supports of length 0, 1 and many with repeated rows.
func TestGatherScatterBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const n, margin = 37, 32
	for _, nb := range []int{1, 4, 5, 16, 17, 23, 64, 70} {
		for _, w := range []int{0, 1, 3, 4, 5, 7, 8, 12, 16, 17, 20, 33, 64} {
			if w > nb {
				continue
			}
			for _, length := range []int{0, 1, 2, 50} {
				c0 := rng.Intn(nb - w + 1)
				name := fmt.Sprintf("nb=%d w=%d c0=%d len=%d", nb, w, c0, length)
				idx, val := randomSupport(rng, n, length, true)
				v, _ := guardedBlock(rng, n, nb, margin)

				wantRe, wantIm := simdFill(rng, w), simdFill(rng, w)
				gotRe, gotIm := simdFill(rng, w), simdFill(rng, w)
				if bad := gatherDotScalar(wantRe, wantIm, v.Re[c0:], v.Im[c0:], n, nb, idx, val); bad != -1 {
					t.Fatalf("%s: scalar gather refused sample %d", name, bad)
				}
				if length == 0 {
					for k := 0; k < w; k++ {
						if wantRe[k] != 0 || wantIm[k] != 0 {
							t.Fatalf("%s: empty support left sums[%d] = (%g, %g)", name, k, wantRe[k], wantIm[k])
						}
					}
				}
				if HasAVX2 {
					if bad := gatherDotAVX2(gotRe, gotIm, v.Re[c0:], v.Im[c0:], n, nb, idx, val); bad != -1 {
						t.Fatalf("%s: avx2 gather refused sample %d", name, bad)
					}
					eqBits(t, name+" gather/re", gotRe, wantRe)
					eqBits(t, name+" gather/im", gotIm, wantIm)
				}

				sumsRe, sumsIm := simdFill(rng, w), simdFill(rng, w)
				want, wantBack := guardedBlock(rng, n, nb, margin)
				prior := cloneBlock(want)
				if bad := scatterAxpyScalar(want.Re[c0:], want.Im[c0:], n, nb, idx, val, sumsRe, sumsIm); bad != -1 {
					t.Fatalf("%s: scalar scatter refused sample %d", name, bad)
				}
				checkMargins(t, name+" scalar scatter", wantBack, margin)
				for i := range want.Re {
					if col := i % nb; col >= c0 && col < c0+w {
						continue
					}
					if math.Float64bits(want.Re[i]) != math.Float64bits(prior.Re[i]) ||
						math.Float64bits(want.Im[i]) != math.Float64bits(prior.Im[i]) {
						t.Fatalf("%s: scalar scatter wrote column %d outside [%d, %d)", name, i%nb, c0, c0+w)
					}
				}
				if HasAVX2 {
					got, gotBack := guardedBlock(rng, n, nb, margin)
					copy(got.Re, prior.Re)
					copy(got.Im, prior.Im)
					if bad := scatterAxpyAVX2(got.Re[c0:], got.Im[c0:], n, nb, idx, val, sumsRe, sumsIm); bad != -1 {
						t.Fatalf("%s: avx2 scatter refused sample %d", name, bad)
					}
					checkMargins(t, name+" avx2 scatter", gotBack, margin)
					eqBits(t, name+" scatter/re", got.Re, want.Re)
					eqBits(t, name+" scatter/im", got.Im, want.Im)
				}
			}
		}
	}
}

// TestGatherScatterGuards: both arms stop at the first sample whose row is
// outside the block and report its position; the exported entry points turn
// that, and any mis-shaped argument, into a panic.
func TestGatherScatterGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	const n, nb = 11, 6
	v := colsBlock(rng, n, nb)
	sums := make([]float64, 2*nb)
	for _, w := range []int{1, 4, 5} { // scalar-lane, vector, both passes
		for _, badRow := range []int32{n, -1, math.MaxInt32, math.MinInt32} {
			idx, val := randomSupport(rng, n, 9, false)
			idx[6] = badRow
			name := fmt.Sprintf("w=%d row=%d", w, badRow)
			if got := gatherDotScalar(sums[:w], sums[nb:nb+w], v.Re, v.Im, n, nb, idx, val); got != 6 {
				t.Errorf("%s: scalar gather reports %d, want 6", name, got)
			}
			if got := scatterAxpyScalar(v.Re, v.Im, n, nb, idx, val, sums[:w], sums[nb:nb+w]); got != 6 {
				t.Errorf("%s: scalar scatter reports %d, want 6", name, got)
			}
			if HasAVX2 {
				if got := gatherDotAVX2(sums[:w], sums[nb:nb+w], v.Re, v.Im, n, nb, idx, val); got != 6 {
					t.Errorf("%s: avx2 gather reports %d, want 6", name, got)
				}
				if got := scatterAxpyAVX2(v.Re, v.Im, n, nb, idx, val, sums[:w], sums[nb:nb+w]); got != 6 {
					t.Errorf("%s: avx2 scatter reports %d, want 6", name, got)
				}
			}
			expectPanic(t, name+" GatherDot", func() { GatherDot(sums[:w], sums[nb:nb+w], v, 0, idx, val) })
			expectPanic(t, name+" ScatterAxpy", func() { ScatterAxpy(v, 0, idx, val, sums[:w], sums[nb:nb+w]) })
		}
	}
	idx, val := randomSupport(rng, n, 4, false)
	expectPanic(t, "sums planes", func() { GatherDot(sums[:3], sums[:2], v, 0, idx, val) })
	expectPanic(t, "val length", func() { GatherDot(sums[:3], sums[3:6], v, 0, idx, val[:3]) })
	expectPanic(t, "columns past nb", func() { GatherDot(sums[:3], sums[3:6], v, nb-2, idx, val) })
	expectPanic(t, "negative column", func() { ScatterAxpy(v, -1, idx, val, sums[:3], sums[3:6]) })
	expectPanic(t, "scatter columns past nb", func() { ScatterAxpy(v, 4, idx, val, sums[:3], sums[3:6]) })
}

// TestStencilKernelsZeroAlloc: the exported entry points, assert-guarded
// dispatch included, stay off the heap.
func TestStencilKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	xp, xm := periodicTables(10, 4)
	s := NewStencil(10, 10, 10, 4, xp, xm, xp, xm)
	const n, nb = 1000, 7
	v, out := colsBlock(rng, n, nb), colsBlock(rng, n, nb)
	vloc := simdFill(rng, n)
	idx, val := randomSupport(rng, n, 40, true)
	var sumsRe, sumsIm [nb]float64
	if a := testing.AllocsPerRun(10, func() {
		c := StencilCoef{Shift: 0.5, Sign: -1, Diag: 2}
		c.Cx[0], c.Cy[1], c.Cz[2] = 1, 2, 3
		StencilRow(s, &c, vloc, v, out, 4, 7)
		GatherDot(sumsRe[:], sumsIm[:], v, 0, idx, val)
		ScatterAxpy(out, 0, idx, val, sumsRe[:], sumsIm[:])
	}); a != 0 {
		t.Errorf("row-resident kernels allocate %.0f times per round, want 0", a)
	}
}

// FuzzStencilRow: any shape, width, row, tables and zeroed z coefficients
// the fuzzer finds — both arms agree bit for bit, the scalar arm writes
// exactly the row, and the NaN margins around the planes stay out of every
// sum and stay NaN. tables = 0 is the periodic wrap of the Hamiltonian.
func FuzzStencilRow(f *testing.F) {
	f.Add(uint8(10), uint8(10), uint8(10), uint8(4), uint8(4), uint8(0), uint8(0), int64(0), uint8(0))  // bench grid, sweep width
	f.Add(uint8(10), uint8(10), uint8(10), uint8(4), uint8(16), uint8(5), uint8(9), int64(0), uint8(0)) // paper width, interior plane
	f.Add(uint8(3), uint8(5), uint8(4), uint8(4), uint8(5), uint8(3), uint8(4), int64(0), uint8(2))     // wraps more than once, Nz = Nf
	f.Add(uint8(6), uint8(2), uint8(9), uint8(8), uint8(17), uint8(4), uint8(1), int64(7), uint8(0x81)) // arbitrary tables
	f.Add(uint8(6), uint8(3), uint8(4), uint8(3), uint8(3), uint8(1), uint8(2), int64(0), uint8(0))     // nb 4: a four-point tile, three single points
	f.Add(uint8(4), uint8(2), uint8(5), uint8(1), uint8(7), uint8(2), uint8(1), int64(0), uint8(4))     // nb 8: two vectors a point
	f.Add(uint8(0), uint8(2), uint8(3), uint8(3), uint8(11), uint8(0), uint8(1), int64(3), uint8(0))    // nb 12: vectors only, one point
	f.Add(uint8(9), uint8(1), uint8(6), uint8(4), uint8(19), uint8(5), uint8(0), int64(9), uint8(0x22)) // nb 20: a tile and a vector
	f.Add(uint8(1), uint8(4), uint8(2), uint8(5), uint8(31), uint8(1), uint8(3), int64(0), uint8(0))    // nb 32: two tiles a point
	f.Fuzz(func(t *testing.T, nx, ny, nz, nf, nb, iz, iy uint8, tables int64, zeroCz uint8) {
		sh := [5]int{int(nx%12) + 1, int(ny%6) + 1, int(nz%12) + 1, int(nf%MaxHalfWidth) + 1, int(nb%40) + 1}
		rng := rand.New(rand.NewSource(tables))
		xp, xm := periodicTables(sh[0], sh[3])
		yp, ym := periodicTables(sh[1], sh[3])
		if tables != 0 {
			xp, xm = randomTables(rng, sh[0], sh[3])
			yp, ym = randomTables(rng, sh[1], sh[3])
		}
		s := NewStencil(sh[0], sh[1], sh[2], sh[3], xp, xm, yp, ym)
		checkStencilRow(t, fmt.Sprint(sh, iz, iy, tables, zeroCz), rng, s, randomCoef(rng, uint(zeroCz)),
			sh[4], int(iz)%sh[2], int(iy)%sh[1])
	})
}
