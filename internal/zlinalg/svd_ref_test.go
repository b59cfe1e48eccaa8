package zlinalg

import (
	"errors"
	"math"
	"math/cmplx"
	"sort"
)

// referenceSVD is the scalar one-sided Jacobi SVD on complex128 columns,
// sweeping the pairs in row-cyclic order: the bit-identity reference of
// SVD, which runs the same rotations on split planes four pairs at a time.
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
	sort.Slice(svs, func(i, j int) bool { return svs[i].s > svs[j].s })

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
	return &SVDResult{U: u, S: s, V: vOut}, nil
}
