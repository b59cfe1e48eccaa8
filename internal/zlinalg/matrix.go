// Package zlinalg implements dense complex linear algebra from scratch:
// matrix arithmetic, LU and QR factorizations, Hessenberg reduction, a
// shifted-QR complex Schur eigensolver, a one-sided Jacobi SVD, a Hermitian
// eigensolver, and a shift-invert generalized eigensolver.
//
// It plays the role that LAPACK/MKL (ZGGEV, ZGESVD, ZHEEV, ...) plays in the
// reference implementation of the paper. Matrices are small by design: the
// Sakurai-Sugiura method only needs dense algebra at dimension
// Nrh*Nmm << N, and the OBM baseline at 2*Nx*Ny*Nf.
package zlinalg

import (
	"fmt"
	"math"
	"math/cmplx"

	"cbs/internal/soa"
)

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len Rows*Cols, element (i,j) at Data[i*Cols+j]
}

// NewMatrix allocates an r-by-c zero matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("zlinalg: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]complex128) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("zlinalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Row returns a view (shared backing array) of row i.
func (m *Matrix) Row(i int) []complex128 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []complex128 {
	out := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// SetCol assigns column j from v.
func (m *Matrix) SetCol(j int, v []complex128) {
	if len(v) != m.Rows {
		panic("zlinalg: SetCol length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = v[i]
	}
}

// Slice returns a copy of the submatrix with rows [r0,r1) and cols [c0,c1).
func (m *Matrix) Slice(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.Rows || c0 < 0 || c1 > m.Cols || r0 > r1 || c0 > c1 {
		panic("zlinalg: Slice out of range")
	}
	s := NewMatrix(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(s.Row(i-r0), m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return s
}

// SetSlice copies src into m with top-left corner at (r0,c0).
func (m *Matrix) SetSlice(r0, c0 int, src *Matrix) {
	if r0+src.Rows > m.Rows || c0+src.Cols > m.Cols {
		panic("zlinalg: SetSlice out of range")
	}
	for i := 0; i < src.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+src.Cols], src.Row(i))
	}
}

// ConjTranspose returns the Hermitian transpose of m.
func (m *Matrix) ConjTranspose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	ConjTransposeTo(t, m)
	return t
}

// ConjTransposeTo sets t to the Hermitian transpose of m; t must be
// m.Cols x m.Rows and share no storage with m.
func ConjTransposeTo(t, m *Matrix) {
	if t.Rows != m.Cols || t.Cols != m.Rows {
		panic(fmt.Sprintf("zlinalg: ConjTransposeTo shape mismatch %dx%d into %dx%d", m.Rows, m.Cols, t.Rows, t.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = cmplx.Conj(ri[j])
		}
	}
}

// Add returns a + b.
func Add(a, b *Matrix) *Matrix {
	checkSameShape(a, b)
	c := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		c.Data[i] = a.Data[i] + b.Data[i]
	}
	return c
}

// Sub returns a - b.
func Sub(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, a.Cols)
	SubTo(c, a, b)
	return c
}

// SubTo sets c = a - b element by element; c may be a or b.
func SubTo(c, a, b *Matrix) {
	checkSameShape(a, b)
	checkSameShape(c, a)
	for i := range a.Data {
		c.Data[i] = a.Data[i] - b.Data[i]
	}
}

// Scale returns s*a.
func Scale(s complex128, a *Matrix) *Matrix {
	c := NewMatrix(a.Rows, a.Cols)
	ScaleTo(c, s, a)
	return c
}

// ScaleTo sets c = s*a element by element; c may be a.
func ScaleTo(c *Matrix, s complex128, a *Matrix) {
	checkSameShape(c, a)
	for i := range a.Data {
		c.Data[i] = s * a.Data[i]
	}
}

// Mul returns the matrix product a*b; see MulTo.
func Mul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	MulTo(c, a, b)
	return c
}

// MulTo sets c = a*b with a cache-friendly ikj loop: row i of c starts at
// zero and takes a[i][k]*b[k] for k in order, skipping zero a[i][k]. c must
// be a.Rows x b.Cols and share no storage with a or b.
func MulTo(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("zlinalg: Mul shape mismatch %dx%d * %dx%d into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	clear(c.Data)
	for i := 0; i < a.Rows; i++ {
		ci := c.Row(i)
		for k, aik := range a.Row(i) {
			if aik == 0 {
				continue
			}
			soa.AddMulRow(ci, aik, b.Row(k))
		}
	}
}

// MulVec returns the matrix-vector product a*x.
func MulVec(a *Matrix, x []complex128) []complex128 {
	if a.Cols != len(x) {
		panic("zlinalg: MulVec shape mismatch")
	}
	y := make([]complex128, a.Rows)
	for i := 0; i < a.Rows; i++ {
		ai := a.Row(i)
		var s complex128
		for j, v := range ai {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MaxAbs returns the largest entry magnitude of m.
func (m *Matrix) MaxAbs() float64 {
	var s float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// IsHermitian reports whether m is Hermitian to within tol (absolute).
func (m *Matrix) IsHermitian(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i; j < m.Cols; j++ {
			if cmplx.Abs(m.At(i, j)-cmplx.Conj(m.At(j, i))) > tol {
				return false
			}
		}
	}
	return true
}

func checkSameShape(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("zlinalg: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// --- vector helpers -------------------------------------------------------

// Dot returns the Hermitian inner product conj(x).y.
func Dot(x, y []complex128) complex128 {
	if len(x) != len(y) {
		panic("zlinalg: Dot length mismatch")
	}
	var s complex128
	for i := range x {
		s += cmplx.Conj(x[i]) * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []complex128) float64 {
	var s float64
	for _, v := range x {
		re, im := real(v), imag(v)
		s += re*re + im*im
	}
	return math.Sqrt(s)
}

// Axpy performs y += alpha*x in place.
func Axpy(alpha complex128, x, y []complex128) {
	if len(x) != len(y) {
		panic("zlinalg: Axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	soa.AddMulRow(y, alpha, x)
}

// ScaleVec performs x *= alpha in place.
func ScaleVec(alpha complex128, x []complex128) {
	for i := range x {
		x[i] *= alpha
	}
}

// Normalize scales x to unit 2-norm (no-op for the zero vector) and returns
// the original norm.
func Normalize(x []complex128) float64 {
	n := Norm2(x)
	if n == 0 {
		return 0
	}
	ScaleVec(complex(1/n, 0), x)
	return n
}
