package zlinalg

import (
	"errors"
	"math"
	"math/cmplx"

	"cbs/internal/soa"
)

// QR holds a Householder QR factorization A = Q*R with Q unitary (m-by-m,
// returned thin as m-by-n when requested) and R upper triangular.
type QR struct {
	m, n int
	qr   *Matrix      // R in the upper triangle, reflector tails below
	tau  []complex128 // Householder scalars
	diag []complex128 // diagonal of R (the qr diagonal stores reflector heads)
}

// FactorQR computes the Householder QR factorization of a (m >= n required
// for a full-rank R; taller-than-wide and square both work). a is not
// modified.
func FactorQR(a *Matrix) (*QR, error) {
	if a.Rows < a.Cols {
		return nil, errors.New("zlinalg: FactorQR requires Rows >= Cols")
	}
	return factorQR(a.Clone()), nil
}

// factorQR factors qr (Rows >= Cols) in place.
func factorQR(qr *Matrix) *QR {
	m, n := qr.Rows, qr.Cols
	tau, diag, s := make([]complex128, n), make([]complex128, n), make([]complex128, n)
	for k := 0; k < n; k++ {
		// Householder vector for column k, rows k..m-1.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, cmplx.Abs(qr.At(i, k)))
		}
		if norm == 0 {
			continue
		}
		akk := qr.At(k, k)
		// alpha = -exp(i*arg(akk)) * norm so that v = x - alpha*e1 avoids
		// cancellation.
		phase := complex(1, 0)
		if akk != 0 {
			phase = akk / complex(cmplx.Abs(akk), 0)
		}
		alpha := -phase * complex(norm, 0)
		// v = x - alpha*e1, stored in place.
		qr.Set(k, k, akk-alpha)
		// tau = 2/(v†v). Compute v†v.
		var vv float64
		for i := k; i < m; i++ {
			vv += real(qr.At(i, k) * cmplx.Conj(qr.At(i, k)))
		}
		diag[k] = alpha
		if vv == 0 {
			continue
		}
		tau[k] = complex(2/vv, 0)
		// Apply H = I - tau*v*v† to the trailing columns.
		reflect(qr, k+1, qr, k, tau[k], s)
	}
	return &QR{m: m, n: n, qr: qr, tau: tau, diag: diag}
}

// reflect applies the reflector I - tau*v*v†, v = h[k:, k], to rows k.. of
// x in the columns from c on; s is scratch for one such row. Per column it
// sums conj(v_i)*x_ij in row order, scales the sum by tau and subtracts
// v_i times it, a row at a time on the interleaved row kernels.
func reflect(x *Matrix, c int, h *Matrix, k int, tau complex128, s []complex128) {
	s = s[:x.Cols-c]
	clear(s)
	for i := k; i < x.Rows; i++ {
		soa.AddMulRow(s, cmplx.Conj(h.At(i, k)), x.Row(i)[c:])
	}
	for j := range s {
		s[j] *= tau
	}
	for i := k; i < x.Rows; i++ {
		soa.SubMulRow(x.Row(i)[c:], h.At(i, k), s)
	}
}

// R returns the n-by-n upper-triangular factor.
func (f *QR) R() *Matrix {
	r := NewMatrix(f.n, f.n)
	for i := 0; i < f.n; i++ {
		r.Set(i, i, f.diag[i])
		for j := i + 1; j < f.n; j++ {
			r.Set(i, j, f.qr.At(i, j))
		}
	}
	return r
}

// Q returns the thin m-by-n unitary factor.
func (f *QR) Q() *Matrix {
	q := NewMatrix(f.m, f.n)
	for j := 0; j < f.n; j++ {
		q.Set(j, j, 1)
	}
	f.applyQ(q)
	return q
}

// applyQ overwrites x (m rows) with Q*x, the reflectors applied in reverse
// order.
func (f *QR) applyQ(x *Matrix) {
	s := make([]complex128, x.Cols)
	for k := f.n - 1; k >= 0; k-- {
		if f.tau[k] != 0 {
			reflect(x, 0, f.qr, k, f.tau[k], s)
		}
	}
}

// applyQT overwrites x (length m) with Q†*x.
func (f *QR) applyQT(x []complex128) {
	if len(x) != f.m {
		panic("zlinalg: applyQT length mismatch")
	}
	for k := 0; k < f.n; k++ {
		if f.tau[k] == 0 {
			continue
		}
		var s complex128
		for i := k; i < f.m; i++ {
			s += cmplx.Conj(f.qr.At(i, k)) * x[i]
		}
		s *= f.tau[k]
		for i := k; i < f.m; i++ {
			x[i] -= s * f.qr.At(i, k)
		}
	}
}

// SolveVec solves the least-squares problem min ||A*x - b||_2 (exact solve
// when A is square and nonsingular).
func (f *QR) SolveVec(b []complex128) ([]complex128, error) {
	y := make([]complex128, f.m)
	copy(y, b)
	f.applyQT(y)
	x := make([]complex128, f.n)
	for i := f.n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < f.n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		d := f.diag[i]
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// OrthonormalizeColumns replaces the columns of a with an orthonormal basis
// of their span (thin Q of the QR factorization), returning the basis. It is
// used to re-orthogonalize block-iteration subspaces.
func OrthonormalizeColumns(a *Matrix) (*Matrix, error) {
	f, err := FactorQR(a)
	if err != nil {
		return nil, err
	}
	return f.Q(), nil
}
