package zlinalg

import (
	"errors"
	"math"
	"math/cmplx"
	"sort"

	"cbs/internal/soa"
)

// SVDResult holds a singular value decomposition A = U * diag(S) * V†,
// with U m-by-r, V n-by-r (r = min(m,n)) and S sorted descending. The
// columns of V are orthonormal, those of zero singular values included;
// a column of U whose singular value is zero is zero.
type SVDResult struct {
	U *Matrix
	S []float64
	V *Matrix
	// Sweeps is the number of one-sided Jacobi sweeps run, the last of
	// which found every column pair orthogonal.
	Sweeps int
}

// maxJacobiSweeps bounds the number of one-sided Jacobi sweeps.
const maxJacobiSweeps = 60

// SVD computes the thin singular value decomposition of a by QR-
// preconditioned one-sided Jacobi (Drmač & Veselić, SIAM J. Matrix Anal.
// Appl. 29, 2008), which delivers high relative accuracy even for tiny
// singular values -- important because the Sakurai-Sugiura rank filter
// thresholds at delta = 1e-10 relative to sigma_1.
//
// For m <= n it orders a's rows (P) and columns (P_c) by norm, descending,
// factors B = (P†*A*P_c)† = Q*R by Householder QR and runs the Jacobi sweep
// on the m x m triangle X = R†: X = U_x*Σ*V_x†. Then U = P*U_x and
// V = P_c*Q*[V_x; 0], Q's reflectors applied in place to V_x padded with
// zero rows, so V is orthonormal whatever the rank: negf's null spaces are
// its zero-sigma columns. The row order grades X's columns, on which the
// sweep converges in about a third of the sweeps it needs on a itself;
// the column order keeps the QR of B, whose rows are a's graded columns,
// row-wise accurate. A taller a is first reduced to its square factor,
// a = Q_0*R_0, and U = Q_0*[U_R; 0].
func SVD(a *Matrix) (*SVDResult, error) {
	m, n := a.Rows, a.Cols
	if m > n {
		f, err := FactorQR(a)
		if err != nil {
			return nil, err
		}
		r, err := SVD(f.R())
		if err != nil {
			return nil, err
		}
		u := NewMatrix(m, n)
		copy(u.Data, r.U.Data)
		f.applyQ(u)
		r.U = u
		return r, nil
	}

	rows, cols := make([]float64, m), make([]float64, n)
	for i := range rows {
		for j, z := range a.Row(i) {
			q := real(z)*real(z) + imag(z)*imag(z)
			rows[i] += q
			cols[j] += q
		}
	}
	perm, cperm := descending(rows), descending(cols)
	b := NewMatrix(n, m)
	for k, r := range perm {
		row := a.Row(r)
		for i, c := range cperm {
			b.Data[i*m+k] = cmplx.Conj(row[c])
		}
	}
	f := factorQR(b)

	// W = R† (lower triangular) and V_x = I, on planes.
	w := soa.NewBlock[float64](m, m)
	for i := 0; i < m; i++ {
		w.Re[i*m+i], w.Im[i*m+i] = real(f.diag[i]), -imag(f.diag[i])
		for j := 0; j < i; j++ {
			z := b.Data[j*m+i]
			w.Re[i*m+j], w.Im[i*m+j] = real(z), -imag(z)
		}
	}
	v := soa.NewBlock[float64](m, m)
	for j := 0; j < m; j++ {
		v.Re[j*m+j] = 1
	}
	sweeps, err := jacobi(w, v)
	if err != nil {
		return nil, err
	}

	// Singular values are the column norms; U columns the normalized columns.
	sig, junk := make([]float64, m), make([]float64, m)
	soa.DotCols(sig, junk, w, w) // per column, sum of re*re + im*im in row order
	for j := range sig {
		sig[j] = math.Sqrt(sig[j])
	}
	u, vOut, s := NewMatrix(m, m), NewMatrix(n, m), make([]float64, m)
	for k, j := range descending(sig) {
		s[k] = sig[j]
		if s[k] > 0 {
			inv := complex(1/s[k], 0)
			for i := 0; i < m; i++ {
				u.Set(perm[i], k, complex(w.Re[i*m+j], w.Im[i*m+j])*inv)
			}
		}
		for i := 0; i < m; i++ {
			vOut.Set(i, k, complex(v.Re[i*m+j], v.Im[i*m+j]))
		}
	}
	f.applyQ(vOut)
	// V's rows in a's column order; b's storage is free once Q is applied.
	for i, c := range cperm {
		copy(b.Row(c), vOut.Row(i))
	}
	return &SVDResult{U: u, S: s, V: b, Sweeps: sweeps}, nil
}

// descending returns the indices of x by value, descending; equal values
// keep their order.
func descending(x []float64) []int {
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return x[order[i]] > x[order[j]] })
	return order
}

// jacobi runs one-sided Jacobi sweeps on w's columns until every pair is
// orthogonal to tolerance, rotating v's columns alongside, and returns the
// number of sweeps.
//
// Each sweep visits the pairs (p, q), p < q, of the row-cyclic order, on
// split re/im planes. In that order pair (p, q) depends only on (p, q-1)
// and (p-1, q), so the sweep runs it anti-diagonal by anti-diagonal
// (p+q = 1, 2, ...): the diagonal's pairs are independent, so
// soa.JacobiDots and soa.JacobiRotate take all of them in one pass over
// the rows, four at a time in vector lanes, and the same rotations then
// pass over v. Every column sees the rotations of the row-cyclic sweep in
// the same order, so the result is bit-identical to it.
func jacobi(w, v *soa.Block[float64]) (int, error) {
	m, n := w.N(), w.NB()
	tol := math.Sqrt(float64(m)) * 2.220446049250313e-16
	// One anti-diagonal holds at most n/2 pairs.
	quads := make([]soa.JacobiQuad, n/8+1)
	for sweep := 1; sweep <= maxJacobiSweeps; sweep++ {
		off := 0
		for s := 1; s <= 2*n-3; s++ {
			last := (s - 1) / 2 // pairs (p, s-p) for max(0, s-n+1) <= p <= last
			nq := 0
			for p := max(0, s-n+1); p <= last; p += 4 {
				quads[nq] = soa.JacobiQuad{P: p, Q: s - p, Lanes: min(4, last-p+1)}
				nq++
			}
			soa.JacobiDots(w, quads[:nq])
			// The rotating quads, moved to the front in diagonal order.
			nr := 0
			for j := range quads[:nq] {
				q := &quads[j]
				rotate := false
				for k := 0; k < q.Lanes; k++ {
					if jacobiRotation(q, k, tol) {
						off++
						q.Mask[k] = ^uint64(0)
						rotate = true
					}
				}
				if rotate {
					quads[nr] = *q
					nr++
				}
			}
			soa.JacobiRotate(w, quads[:nr])
			soa.JacobiRotate(v, quads[:nr])
		}
		if off == 0 {
			return sweep, nil
		}
	}
	return 0, errors.New("zlinalg: Jacobi SVD failed to converge")
}

// jacobiRotation decides lane k of q from its sums: false when the pair is
// already orthogonal to tolerance, else it stores the rotation that
// diagonalizes the 2x2 Gram block [[app, apq], [conj(apq), aqq]].
func jacobiRotation(q *soa.JacobiQuad, k int, tol float64) bool {
	app, aqq := q.App[k], q.Aqq[k]
	apq := complex(q.ApqRe[k], q.ApqIm[k])
	absApq := cmplx.Abs(apq)
	if absApq <= tol*math.Sqrt(app*aqq) || apq == 0 {
		return false
	}
	phase := apq / complex(absApq, 0)
	zeta := (aqq - app) / (2 * absApq)
	t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
	cs := 1 / math.Sqrt(1+t*t)
	snMag := cs * t
	sn := complex(snMag, 0) * phase
	q.Cs[k], q.SnRe[k], q.SnIm[k] = cs, real(sn), imag(sn)
	return true
}

// SVDWorkBytes is the working memory of SVD on an n x n matrix, the shape
// of every Hankel and coupling block it decomposes: the planes of R† and
// V_x and Q*[V_x; 0] before its rows go to a's column order (the QR
// storage of B, which takes them, is returned as V).
func SVDWorkBytes(n int) int64 {
	return 3 * int64(n) * int64(n) * 16
}

// Rank returns the number of singular values greater than delta relative to
// the largest one (the Sakurai-Sugiura low-rank filter criterion).
func (r *SVDResult) Rank(delta float64) int {
	if len(r.S) == 0 || r.S[0] == 0 {
		return 0
	}
	k := 0
	for _, s := range r.S {
		if s > delta*r.S[0] {
			k++
		}
	}
	return k
}
