package zlinalg

import (
	"errors"
	"math"
	"math/cmplx"
	"sort"
)

// referenceSVD is the scalar one-sided Jacobi SVD on complex128 columns,
// sweeping the pairs in row-cyclic order without preconditioning: run on
// R† it is the bit-identity reference of SVD's sweep, which takes the same
// rotations on split planes four pairs at a time.
func referenceSVD(a *Matrix) (*SVDResult, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		// Work on the transpose and swap U <-> V.
		r, err := referenceSVD(a.ConjTranspose())
		if err != nil {
			return nil, err
		}
		return &SVDResult{U: r.V, S: r.S, V: r.U}, nil
	}
	// Work matrix W: columns are rotated in place until mutually orthogonal.
	w := a.Clone()
	v := Identity(n)
	eps := 2.220446049250313e-16
	tol := math.Sqrt(float64(m)) * eps

	cols := make([][]complex128, n) // column-major copies for cache locality
	for j := 0; j < n; j++ {
		cols[j] = w.Col(j)
	}
	vcols := make([][]complex128, n)
	for j := 0; j < n; j++ {
		vcols[j] = v.Col(j)
	}

	sweeps := 0
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		off := 0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				cp, cq := cols[p], cols[q]
				var app, aqq float64
				var apq complex128
				for i := 0; i < m; i++ {
					app += real(cp[i])*real(cp[i]) + imag(cp[i])*imag(cp[i])
					aqq += real(cq[i])*real(cq[i]) + imag(cq[i])*imag(cq[i])
					apq += cmplx.Conj(cp[i]) * cq[i]
				}
				if cmplx.Abs(apq) <= tol*math.Sqrt(app*aqq) || apq == 0 {
					continue
				}
				off++
				// Diagonalize the 2x2 Gram block [[app, apq],[conj(apq), aqq]].
				absApq := cmplx.Abs(apq)
				phase := apq / complex(absApq, 0)
				zeta := (aqq - app) / (2 * absApq)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				cs := 1 / math.Sqrt(1+t*t)
				snMag := cs * t
				sn := complex(snMag, 0) * phase
				// Rotate columns p, q of W and V:
				//   cp' = cs*cp - conj(sn)*cq ;  cq' = sn*cp + cs*cq
				csC := complex(cs, 0)
				snConj := cmplx.Conj(sn)
				for i := 0; i < m; i++ {
					t1, t2 := cp[i], cq[i]
					cp[i] = csC*t1 - snConj*t2
					cq[i] = sn*t1 + csC*t2
				}
				vp, vq := vcols[p], vcols[q]
				for i := 0; i < n; i++ {
					t1, t2 := vp[i], vq[i]
					vp[i] = csC*t1 - snConj*t2
					vq[i] = sn*t1 + csC*t2
				}
			}
		}
		if off == 0 {
			sweeps = sweep + 1
			break
		}
		if sweep == maxJacobiSweeps-1 {
			return nil, errors.New("zlinalg: Jacobi SVD failed to converge")
		}
	}

	// Singular values are the column norms; U columns the normalized columns.
	type sv struct {
		s   float64
		idx int
	}
	svs := make([]sv, n)
	for j := 0; j < n; j++ {
		svs[j] = sv{Norm2(cols[j]), j}
	}
	sort.SliceStable(svs, func(i, j int) bool { return svs[i].s > svs[j].s })

	u := NewMatrix(m, n)
	vOut := NewMatrix(n, n)
	s := make([]float64, n)
	for k, e := range svs {
		s[k] = e.s
		cj := cols[e.idx]
		if e.s > 0 {
			inv := complex(1/e.s, 0)
			for i := 0; i < m; i++ {
				u.Set(i, k, cj[i]*inv)
			}
		}
		vj := vcols[e.idx]
		for i := 0; i < n; i++ {
			vOut.Set(i, k, vj[i])
		}
	}
	return &SVDResult{U: u, S: s, V: vOut, Sweeps: sweeps}, nil
}

// preconditionedReference is SVD's recipe on scalar loops: rows sorted by
// norm, the Householder QR of B = A†P by scalarQR, referenceSVD of X = R†,
// U = P*U_x and V = Q*[V_x; 0] by scalarApplyQ; a taller a is reduced to
// its R factor first and U = Q_0*[U_R; 0].
func preconditionedReference(a *Matrix) (*SVDResult, error) {
	m, n := a.Rows, a.Cols
	if m > n {
		qr := a.Clone()
		tau, diag := scalarQR(qr)
		r := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			r.Set(i, i, diag[i])
			for j := i + 1; j < n; j++ {
				r.Set(i, j, qr.At(i, j))
			}
		}
		res, err := preconditionedReference(r)
		if err != nil {
			return nil, err
		}
		u := NewMatrix(m, n)
		copy(u.Data, res.U.Data)
		scalarApplyQ(qr, tau, u)
		res.U = u
		return res, nil
	}
	norms, cnorms := make([]float64, m), make([]float64, n)
	perm, cperm := make([]int, m), make([]int, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			z := a.At(i, j)
			norms[i] += real(z)*real(z) + imag(z)*imag(z)
			cnorms[j] += real(z)*real(z) + imag(z)*imag(z)
		}
	}
	for i := range perm {
		perm[i] = i
	}
	for j := range cperm {
		cperm[j] = j
	}
	sort.SliceStable(perm, func(x, y int) bool { return norms[perm[x]] > norms[perm[y]] })
	sort.SliceStable(cperm, func(x, y int) bool { return cnorms[cperm[x]] > cnorms[cperm[y]] })
	b := NewMatrix(n, m)
	for k, r := range perm {
		for i, c := range cperm {
			b.Set(i, k, cmplx.Conj(a.At(r, c)))
		}
	}
	tau, diag := scalarQR(b)
	x := NewMatrix(m, m)
	for i := 0; i < m; i++ {
		x.Set(i, i, cmplx.Conj(diag[i]))
		for j := 0; j < i; j++ {
			x.Set(i, j, cmplx.Conj(b.At(j, i)))
		}
	}
	r, err := referenceSVD(x)
	if err != nil {
		return nil, err
	}
	u := NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for k := 0; k < m; k++ {
			u.Set(perm[i], k, r.U.At(i, k))
		}
	}
	qv := NewMatrix(n, m)
	copy(qv.Data, r.V.Data)
	scalarApplyQ(b, tau, qv)
	v := NewMatrix(n, m)
	for i, c := range cperm {
		for k := 0; k < m; k++ {
			v.Set(c, k, qv.At(i, k))
		}
	}
	return &SVDResult{U: u, S: r.S, V: v, Sweeps: r.Sweeps}, nil
}

// scalarQR is FactorQR's Householder QR on scalar column loops, the bit
// reference of its row-kernel reflections: it factors qr (Rows >= Cols) in
// place and returns the Householder scalars and R's diagonal.
func scalarQR(qr *Matrix) (tau, diag []complex128) {
	m, n := qr.Rows, qr.Cols
	tau, diag = make([]complex128, n), make([]complex128, n)
	for k := 0; k < n; k++ {
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, cmplx.Abs(qr.At(i, k)))
		}
		if norm == 0 {
			continue
		}
		akk := qr.At(k, k)
		phase := complex(1, 0)
		if akk != 0 {
			phase = akk / complex(cmplx.Abs(akk), 0)
		}
		alpha := -phase * complex(norm, 0)
		qr.Set(k, k, akk-alpha)
		var vv float64
		for i := k; i < m; i++ {
			vv += real(qr.At(i, k) * cmplx.Conj(qr.At(i, k)))
		}
		diag[k] = alpha
		if vv == 0 {
			continue
		}
		beta := complex(2/vv, 0)
		tau[k] = beta
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
	return tau, diag
}

// scalarApplyQ overwrites x with Q*x for the reflectors scalarQR left in
// qr, column by column in reverse reflector order.
func scalarApplyQ(qr *Matrix, tau []complex128, x *Matrix) {
	for k := len(tau) - 1; k >= 0; k-- {
		if tau[k] == 0 {
			continue
		}
		for j := 0; j < x.Cols; j++ {
			var s complex128
			for i := k; i < x.Rows; i++ {
				s += cmplx.Conj(qr.At(i, k)) * x.At(i, j)
			}
			s *= tau[k]
			for i := k; i < x.Rows; i++ {
				x.Set(i, j, x.At(i, j)-s*qr.At(i, k))
			}
		}
	}
}
