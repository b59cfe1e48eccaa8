// Package sparse provides an explicit compressed-sparse-row (CSR)
// representation of the Hamiltonian blocks. The paper's first contribution
// claim is that the matrix-free formulation avoids storing the sparse
// Hamiltonian explicitly ("by using an iterative solver, we do not have to
// store the large sparse Hamiltonian matrix explicitly"); this package
// provides the stored alternative so that the claim can be measured as an
// ablation (memory footprint and apply speed, BenchmarkAblationMatrixFree).
//
// The kinetic + local part is assembled in CSR; the separable nonlocal term
// is kept in its factored projector form (storing the outer products would
// square the projector supports, which no real code does).
package sparse

import (
	"errors"
	"fmt"
	"math"

	"cbs/internal/hamiltonian"
	"cbs/internal/zlinalg"
)

// CSR is a compressed-sparse-row complex matrix.
type CSR struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []complex128
}

// Apply computes out = A*v.
func (m *CSR) Apply(v, out []complex128) {
	if len(v) != m.N || len(out) != m.N {
		panic("sparse: Apply length mismatch")
	}
	for i := 0; i < m.N; i++ {
		var s complex128
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			s += m.Val[p] * v[m.Col[p]]
		}
		out[i] = s
	}
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// MemoryBytes returns the resident bytes of the stored matrix.
func (m *CSR) MemoryBytes() int64 {
	return int64(len(m.RowPtr))*4 + int64(len(m.Col))*4 + int64(len(m.Val))*16
}

// ErrNNZOverflow reports an assembly whose entry count does not fit the
// int32 CSR index arrays. RowPtr/Col stay int32 deliberately (half the index
// footprint of int64, and the matrix-free path is preferred at that scale),
// so the builder must refuse to overflow them silently: wrapped RowPtr
// values would corrupt every row past entry 2^31.
var ErrNNZOverflow = errors.New("sparse: number of nonzeros exceeds the int32 index range")

// maxNNZ is the entry-count ceiling of the int32 index arrays; a variable
// so the overflow guard can be regression-tested without 2^31 entries.
var maxNNZ = math.MaxInt32

// builder accumulates one row at a time.
type builder struct {
	n      int
	rowPtr []int32
	col    []int32
	val    []complex128
	err    error
}

func newBuilder(n int) *builder {
	return &builder{n: n, rowPtr: make([]int32, 1, n+1)}
}

func (b *builder) add(col int, v complex128) {
	if v == 0 || b.err != nil {
		return
	}
	if len(b.col) >= maxNNZ {
		b.err = ErrNNZOverflow
		return
	}
	b.col = append(b.col, int32(col))
	b.val = append(b.val, v)
}

func (b *builder) endRow() {
	b.rowPtr = append(b.rowPtr, int32(len(b.col)))
}

func (b *builder) finish() (*CSR, error) {
	if b.err != nil {
		return nil, b.err
	}
	return &CSR{N: b.n, RowPtr: b.rowPtr, Col: b.col, Val: b.val}, nil
}

// Blocks holds the stored form of the three Hamiltonian blocks' local +
// kinetic parts, plus references to the separable projectors.
type Blocks struct {
	H0, HP, HM *CSR
	Op         *hamiltonian.Operator // for the nonlocal (factored) term
}

// FromOperator assembles the kinetic + local parts of H0, H+ and H- into
// CSR. Assembly probes the operator with the projectors masked out by
// subtracting their contribution, which keeps this package independent of
// the operator's internals. Intended for ablation studies on small and
// medium grids (assembly is O(N * stencil) per row via structural probing).
func FromOperator(op *hamiltonian.Operator) (*Blocks, error) {
	g := op.G
	n := op.N()
	nf := op.St.Nf
	if n < 1 {
		return nil, fmt.Errorf("sparse: empty operator")
	}
	// Structural assembly of the kinetic + local part: the stencil pattern
	// is known analytically, so each row is written directly.
	b0 := newBuilder(n)
	bp := newBuilder(n)
	bm := newBuilder(n)
	for iz := 0; iz < g.Nz; iz++ {
		for iy := 0; iy < g.Ny; iy++ {
			for ix := 0; ix < g.Nx; ix++ {
				row := g.Index(ix, iy, iz)
				// Diagonal: kinetic center + local potential.
				b0.add(row, complex(op.Diag()+op.VLoc[row], 0))
				for d := 1; d <= nf; d++ {
					xp, xm := op.NeighborX(d)
					yp, ym := op.NeighborY(d)
					b0.add(g.Index(int(xp[ix]), iy, iz), complex(op.Kx(d), 0))
					b0.add(g.Index(int(xm[ix]), iy, iz), complex(op.Kx(d), 0))
					b0.add(g.Index(ix, int(yp[iy]), iz), complex(op.Ky(d), 0))
					b0.add(g.Index(ix, int(ym[iy]), iz), complex(op.Ky(d), 0))
					if izp := iz + d; izp < g.Nz {
						b0.add(g.Index(ix, iy, izp), complex(op.Kz(d), 0))
					} else {
						bp.add(g.Index(ix, iy, izp-g.Nz), complex(op.Kz(d), 0))
					}
					if izm := iz - d; izm >= 0 {
						b0.add(g.Index(ix, iy, izm), complex(op.Kz(d), 0))
					} else {
						bm.add(g.Index(ix, iy, izm+g.Nz), complex(op.Kz(d), 0))
					}
				}
				b0.endRow()
				bp.endRow()
				bm.endRow()
			}
		}
	}
	h0, err := b0.finish()
	if err != nil {
		return nil, err
	}
	hp, err := bp.finish()
	if err != nil {
		return nil, err
	}
	hm, err := bm.finish()
	if err != nil {
		return nil, err
	}
	return &Blocks{H0: h0, HP: hp, HM: hm, Op: op}, nil
}

// ApplyH0 computes out = H0*v from the stored form (CSR + factored
// nonlocal term).
func (b *Blocks) ApplyH0(v, out []complex128) {
	b.H0.Apply(v, out)
	b.addNonlocal(out, v, 0)
}

// ApplyHp computes out = H+*v.
func (b *Blocks) ApplyHp(v, out []complex128) {
	b.HP.Apply(v, out)
	b.addNonlocal(out, v, 1)
}

// ApplyHm computes out = H-*v.
func (b *Blocks) ApplyHm(v, out []complex128) {
	b.HM.Apply(v, out)
	b.addNonlocal(out, v, -1)
}

// addNonlocal accumulates the separable projector term of block offset l:
// H_l += sum_j p^j h (p^{j+l})^dagger.
func (b *Blocks) addNonlocal(out, v []complex128, l int) {
	for pi := range b.Op.Projs {
		p := &b.Op.Projs[pi]
		for j := -1; j <= 1; j++ {
			jc := j + l
			if jc < -1 || jc > 1 {
				continue
			}
			row := &p.Supp[j+1]
			col := &p.Supp[jc+1]
			if len(row.Idx) == 0 || len(col.Idx) == 0 {
				continue
			}
			var sum complex128
			for i, idx := range col.Idx {
				sum += complex(col.Val[i], 0) * v[idx]
			}
			coef := complex(p.H, 0) * sum
			if coef == 0 {
				continue
			}
			for i, idx := range row.Idx {
				out[idx] += coef * complex(row.Val[i], 0)
			}
		}
	}
}

// MemoryBytes returns the stored representation's resident bytes (CSR
// blocks plus the factored projectors shared with the operator).
func (b *Blocks) MemoryBytes() int64 {
	total := b.H0.MemoryBytes() + b.HP.MemoryBytes() + b.HM.MemoryBytes()
	for _, p := range b.Op.Projs {
		for _, s := range p.Supp {
			total += int64(len(s.Idx))*4 + int64(len(s.Val))*8
		}
	}
	return total
}

// DenseH0 converts the stored H0 (including nonlocal) to dense, for tests.
func (b *Blocks) DenseH0() *zlinalg.Matrix {
	n := b.H0.N
	m := zlinalg.NewMatrix(n, n)
	v := make([]complex128, n)
	out := make([]complex128, n)
	for j := 0; j < n; j++ {
		v[j] = 1
		b.ApplyH0(v, out)
		m.SetCol(j, out)
		v[j] = 0
	}
	return m
}
