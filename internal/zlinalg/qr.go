package zlinalg

import (
	"errors"
	"math"
	"math/cmplx"
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
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, errors.New("zlinalg: FactorQR requires Rows >= Cols")
	}
	qr := a.Clone()
	tau := make([]complex128, n)
	diag := make([]complex128, n)
	for k := 0; k < n; k++ {
		// Householder vector for column k, rows k..m-1.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, cmplx.Abs(qr.At(i, k)))
		}
		if norm == 0 {
			tau[k] = 0
			diag[k] = 0
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
		// v = x - alpha*e1, stored in place; tau = (alpha - akk)/alpha-ish.
		v0 := akk - alpha
		qr.Set(k, k, v0)
		// beta = 2/(v†v). Compute v†v.
		var vv float64
		for i := k; i < m; i++ {
			vv += real(qr.At(i, k) * cmplx.Conj(qr.At(i, k)))
		}
		if vv == 0 {
			tau[k] = 0
			diag[k] = alpha
			continue
		}
		beta := complex(2/vv, 0)
		tau[k] = beta
		diag[k] = alpha
		// Apply H = I - beta*v*v† to the trailing columns.
		for j := k + 1; j < n; j++ {
			var s complex128
			for i := k; i < m; i++ {
				s += cmplx.Conj(qr.At(i, k)) * qr.At(i, j)
			}
			s *= beta
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)-s*qr.At(i, k))
			}
		}
	}
	return &QR{m: m, n: n, qr: qr, tau: tau, diag: diag}, nil
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
	// Accumulate reflectors in reverse order.
	for k := f.n - 1; k >= 0; k-- {
		if f.tau[k] == 0 {
			continue
		}
		for j := 0; j < f.n; j++ {
			var s complex128
			for i := k; i < f.m; i++ {
				s += cmplx.Conj(f.qr.At(i, k)) * q.At(i, j)
			}
			s *= f.tau[k]
			for i := k; i < f.m; i++ {
				q.Set(i, j, q.At(i, j)-s*f.qr.At(i, k))
			}
		}
	}
	return q
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
