package zlinalg

import (
	"errors"
	"math/cmplx"

	"cbs/internal/soa"
)

// ErrSingular is returned when a factorization meets an (numerically)
// singular pivot.
var ErrSingular = errors.New("zlinalg: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P*A = L*U, where L is
// unit lower triangular and U upper triangular, both packed into LU.
type LU struct {
	lu  *Matrix
	piv []int // row i of the factor came from row piv[i] of A
}

// FactorLU computes the LU factorization with partial pivoting of the square
// matrix a. a is not modified.
func FactorLU(a *Matrix) (*LU, error) {
	f := &LU{}
	if err := f.Factor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Factor computes the LU factorization with partial pivoting of the square
// matrix a into f, reusing f's storage when it already has a's size (the
// zero LU is ready for use). a is not modified. After an error f holds no
// usable factorization.
func (f *LU) Factor(a *Matrix) error {
	if a.Rows != a.Cols {
		return errors.New("zlinalg: FactorLU needs a square matrix")
	}
	n := a.Rows
	if f.lu == nil || f.lu.Rows != n {
		f.lu, f.piv = NewMatrix(n, n), make([]int, n)
	}
	lu, piv := f.lu, f.piv
	copy(lu.Data, a.Data)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot search.
		p := k
		best := cmplx.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(lu.At(i, k)); v > best {
				best, p = v, i
			}
		}
		if best == 0 {
			return ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			soa.SubMulRow(lu.Row(i)[k+1:], m, lu.Row(k)[k+1:])
		}
	}
	return nil
}

// SolveVec solves A*x = b for a single right-hand side.
func (f *LU) SolveVec(b []complex128) []complex128 {
	n := f.lu.Rows
	if len(b) != n {
		panic("zlinalg: LU SolveVec length mismatch")
	}
	x := make([]complex128, n)
	// Apply permutation and forward-substitute L*y = P*b.
	for i := 0; i < n; i++ {
		s := b[f.piv[i]]
		ri := f.lu.Row(i)
		for j := 0; j < i; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s
	}
	// Back-substitute U*x = y.
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
	return x
}

// Solve solves A*X = B for all columns of B at once; see SolveTo.
func (f *LU) Solve(b *Matrix) *Matrix {
	x := NewMatrix(f.lu.Rows, b.Cols)
	f.SolveTo(x, b)
	return x
}

// SolveTo solves A*X = B for all columns of B at once into x, which must
// have B's shape and share no storage with it. It runs the same
// substitutions as SolveVec, in the same order per entry, so every column
// is bit-identical to SolveVec on that column; working on whole rows of X
// keeps every inner loop on contiguous memory.
func (f *LU) SolveTo(x, b *Matrix) {
	n := f.lu.Rows
	if b.Rows != n || x.Rows != n || x.Cols != b.Cols {
		panic("zlinalg: LU Solve shape mismatch")
	}
	if len(x.Data) > 0 && &x.Data[0] == &b.Data[0] {
		panic("zlinalg: LU SolveTo output aliases the right-hand side")
	}
	// Apply permutation and forward-substitute L*Y = P*B.
	for i := 0; i < n; i++ {
		xi := x.Row(i)
		copy(xi, b.Row(f.piv[i]))
		for j, l := range f.lu.Row(i)[:i] {
			soa.SubMulRow(xi, l, x.Row(j))
		}
	}
	// Back-substitute U*X = Y.
	for i := n - 1; i >= 0; i-- {
		xi := x.Row(i)
		ri := f.lu.Row(i)
		for j := i + 1; j < n; j++ {
			soa.SubMulRow(xi, ri[j], x.Row(j))
		}
		d := ri[i]
		for k := range xi {
			xi[k] /= d
		}
	}
}

// Inverse returns A^{-1} from the factorization.
func (f *LU) Inverse() *Matrix {
	return f.Solve(Identity(f.lu.Rows))
}

// SolveLinear is a convenience wrapper: factor a and solve a*X = b.
func SolveLinear(a, b *Matrix) (*Matrix, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
