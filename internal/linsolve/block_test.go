package linsolve

import (
	"math/rand"
	"testing"

	"cbs/internal/soa"
	"cbs/internal/zlinalg"
)

// columnwise lifts a single-vector apply to a plane block apply that runs it
// column by column (unpack, apply, repack), so a block solve and per-column
// BiCGDual solves see bit-identical matvecs.
func columnwise(ap Apply, n int) BlockApplySoA[float64] {
	col := make([]complex128, n)
	res := make([]complex128, n)
	return func(v, out *soa.Block[float64]) {
		nb := v.NB()
		for c := 0; c < nb; c++ {
			for i := 0; i < n; i++ {
				col[i] = complex(v.Re[i*nb+c], v.Im[i*nb+c])
			}
			ap(col, res)
			for i := 0; i < n; i++ {
				out.Re[i*nb+c], out.Im[i*nb+c] = real(res[i]), imag(res[i])
			}
		}
	}
}

// randOperator builds a well-conditioned random dense operator and its
// adjoint as Apply closures plus their columnwise plane block applies.
func randOperator(n int, seed int64) (a, ad Apply, ab, abd BlockApplySoA[float64]) {
	rng := rand.New(rand.NewSource(seed))
	m := zlinalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, complex(rng.Float64()*0.4-0.2, rng.Float64()*0.4-0.2))
		}
		m.Set(i, i, m.At(i, i)+complex(4+rng.Float64(), rng.Float64()-0.5))
	}
	mh := m.ConjTranspose()
	mul := func(mat *zlinalg.Matrix) Apply {
		return func(v, out []complex128) {
			for i := 0; i < n; i++ {
				row := mat.Row(i)
				var s complex128
				for j, rv := range row {
					s += rv * v[j]
				}
				out[i] = s
			}
		}
	}
	a, ad = mul(m), mul(mh)
	return a, ad, columnwise(a, n), columnwise(ad, n)
}

// packCols builds the n x len(cols) plane block whose columns are cols.
func packCols(cols [][]complex128) *soa.Block[float64] {
	nb, n := len(cols), len(cols[0])
	b := soa.NewBlock[float64](n, nb)
	for c, col := range cols {
		for i, v := range col {
			b.Re[i*nb+c], b.Im[i*nb+c] = real(v), imag(v)
		}
	}
	return b
}

// blockCol returns column c of a plane block.
func blockCol(b *soa.Block[float64], c int) []complex128 {
	nb := b.NB()
	out := make([]complex128, b.N())
	for i := range out {
		out[i] = complex(b.Re[i*nb+c], b.Im[i*nb+c])
	}
	return out
}

// randBlock fills an n x nb plane block deterministically.
func randBlock(n, nb int, seed int64) *soa.Block[float64] {
	b := soa.NewBlock[float64](n, nb)
	rng := rand.New(rand.NewSource(seed))
	for i := range b.Re {
		b.Re[i] = rng.Float64()*2 - 1
		b.Im[i] = rng.Float64()*2 - 1
	}
	return b
}

// sameResult compares every field of two results but the history.
func sameResult(a, b Result) bool {
	a.History, b.History = nil, nil
	return a.Iterations == b.Iterations && a.Converged == b.Converged && a.StoppedEarly == b.StoppedEarly &&
		a.Breakdown == b.Breakdown && a.Residual == b.Residual && a.DualResidual == b.DualResidual &&
		a.MatVecApplied == b.MatVecApplied
}

// TestBlockBiCGDualMatchesPerColumn: for random operators and nb in
// {1, 3, 8}, the block solver must reproduce the per-column BiCGDual
// solutions, iteration counts and convergence flags exactly (including a
// trivially converged zero column, which exercises the masking).
func TestBlockBiCGDualMatchesPerColumn(t *testing.T) {
	n := 40
	for _, nb := range []int{1, 3, 8} {
		a, ad, ab, abd := randOperator(n, int64(11*nb+1))
		rng := rand.New(rand.NewSource(int64(nb)))
		bc := make([][]complex128, nb)
		bdc := make([][]complex128, nb)
		for c := range bc {
			bc[c] = make([]complex128, n)
			bdc[c] = make([]complex128, n)
			for i := range bc[c] {
				if nb > 1 && c == 1 {
					continue // zero column: converges with 0 iterations
				}
				bc[c][i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
				bdc[c][i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
			}
		}
		opts := Options{Tol: 1e-10}
		x, xd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
		rs := BlockBiCGDualSoA(ab, abd, packCols(bc), packCols(bdc), x, xd, opts, nil, nil)

		for c := 0; c < nb; c++ {
			xc := make([]complex128, n)
			xdc := make([]complex128, n)
			want := BiCGDual(a, ad, bc[c], bdc[c], xc, xdc, opts)
			if !sameResult(rs[c], want) {
				t.Errorf("nb=%d col %d: block %+v, per-column %+v", nb, c, rs[c], want)
			}
			gx, gxd := blockCol(x, c), blockCol(xd, c)
			for i := 0; i < n; i++ {
				if gx[i] != xc[i] || gxd[i] != xdc[i] {
					t.Fatalf("nb=%d col %d: solution element %d differs: (%v, %v) vs (%v, %v)", nb, c, i, gx[i], gxd[i], xc[i], xdc[i])
				}
			}
		}
	}
}

// TestBlockBiCGDualHistory: column 0's residual history matches the
// per-column solve.
func TestBlockBiCGDualHistory(t *testing.T) {
	n, nb := 30, 3
	a, ad, ab, abd := randOperator(n, 5)
	rng := rand.New(rand.NewSource(9))
	bc := make([][]complex128, nb)
	for c := range bc {
		bc[c] = make([]complex128, n)
		for i := range bc[c] {
			bc[c][i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
	}
	opts := Options{Tol: 1e-10, History: true}
	b := packCols(bc)
	x, xd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
	rs := BlockBiCGDualSoA(ab, abd, b, b, x, xd, opts, nil, nil)

	xc := make([]complex128, n)
	xdc := make([]complex128, n)
	want := BiCGDual(a, ad, bc[0], bc[0], xc, xdc, opts)
	if len(rs[0].History) != len(want.History) {
		t.Fatalf("history length %d vs %d", len(rs[0].History), len(want.History))
	}
	for i := range want.History {
		if rs[0].History[i] != want.History[i] {
			t.Errorf("history[%d] = %g vs %g", i, rs[0].History[i], want.History[i])
		}
	}
}

// TestBlockBiCGDualGroupStop: a column whose group majority has converged
// must stop early (at the loose tolerance) while other columns keep
// iterating to full convergence.
func TestBlockBiCGDualGroupStop(t *testing.T) {
	n, nb := 40, 4
	_, _, ab, abd := randOperator(n, 21)
	b := randBlock(n, nb, 2)
	groups := make([]*GroupStop, nb)
	for c := range groups {
		groups[c] = NewGroupStop(4, true)
	}
	// Column 2's group majority has already converged elsewhere; with a huge
	// loose tolerance it must stop at its first check.
	groups[2].MarkConverged()
	groups[2].MarkConverged()
	groups[2].MarkConverged()
	opts := Options{Tol: 1e-10, LooseTol: 1e30}
	x, xd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
	rs := BlockBiCGDualSoA(ab, abd, b, b, x, xd, opts, groups, NewWorkspaceSoA[float64](n, nb))
	if !rs[2].StoppedEarly || rs[2].Iterations != 0 {
		t.Errorf("column 2 not stopped early: %+v", rs[2])
	}
	for c := 0; c < nb; c++ {
		if c == 2 {
			continue
		}
		if !rs[c].Converged {
			t.Errorf("column %d did not converge: %+v", c, rs[c])
		}
		if rs[c].StoppedEarly {
			t.Errorf("column %d stopped early without majority", c)
		}
	}
	// The stopped column's solution froze at the initial guess (zero).
	for _, v := range blockCol(x, 2) {
		if v != 0 {
			t.Fatal("stopped column was updated")
		}
	}
	// Converged columns marked their groups.
	for c := 0; c < nb; c++ {
		want := 1
		if c == 2 {
			want = 3
		}
		if got := groups[c].Converged(); got != want {
			t.Errorf("group %d counts %d converged, want %d", c, got, want)
		}
	}
}

// TestBlockBiCGDualZeroAlloc: with a reused workspace the steady-state
// solve loop must not allocate (the zero-allocation hot-path claim).
func TestBlockBiCGDualZeroAlloc(t *testing.T) {
	n, nb := 32, 4
	_, _, ab, abd := randOperator(n, 33)
	b := randBlock(n, nb, 3)
	x, xd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
	ws := NewWorkspaceSoA[float64](n, nb)
	opts := Options{Tol: 1e-10}
	allocs := testing.AllocsPerRun(10, func() {
		x.Zero()
		xd.Zero()
		BlockBiCGDualSoA(ab, abd, b, b, x, xd, opts, nil, ws)
	})
	if allocs != 0 {
		t.Errorf("steady-state blocked solve allocates %.1f times per call, want 0", allocs)
	}
}

// TestWorkspaceReuseAcrossWidths: a workspace must survive alternating
// block widths and problem sizes.
func TestWorkspaceReuseAcrossWidths(t *testing.T) {
	ws := NewWorkspaceSoA[float64](16, 2)
	for _, dims := range [][2]int{{16, 2}, {8, 8}, {40, 3}, {16, 1}} {
		n, nb := dims[0], dims[1]
		_, _, ab, abd := randOperator(n, int64(n+nb))
		b := randBlock(n, nb, int64(nb))
		x, xd := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
		rs := BlockBiCGDualSoA(ab, abd, b, b, x, xd, Options{Tol: 1e-10}, nil, ws)
		for c, r := range rs {
			if !r.Converged {
				t.Errorf("n=%d nb=%d col %d did not converge (residual %g)", n, nb, c, r.Residual)
			}
		}
	}
}
