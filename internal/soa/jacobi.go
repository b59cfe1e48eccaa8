package soa

// Lane kernels of the one-sided Jacobi SVD (internal/zlinalg). A matrix is
// held as a Block: row i, column j at Re[i*nb+j], Im[i*nb+j]. Disjoint
// rotations commute exactly, and in row-cyclic order pair (p, q) depends
// only on (p, q-1) and (p-1, q), so the pairs of one anti-diagonal p+q = s
// are independent: the SVD takes them four at a time as JacobiQuads, lane
// k holding the pair (P+k, Q-k), and runs all quads of a diagonal in one
// pass over the rows. In a row, columns P..P+3 and Q-3..Q load as vectors
// (the second reversed into lane order); a diagonal's last quad of one to
// three pairs loads and stores them under lane masks. Every column sees
// the same rotations in the same order as in the scalar sweep, and every
// element the same multiplies and adds as Go's complex128 arithmetic on
// it, each sum in row order, so the results are bits of the scalar sweep.

// JacobiQuad carries up to four column pairs of one anti-diagonal through
// JacobiDots and JacobiRotate: lane k < Lanes is the pair (P+k, Q-k).
type JacobiQuad struct {
	// Set by JacobiDots: the squared norms of columns P+k and Q-k and their
	// dot <w_{P+k}, w_{Q-k}> (the first conjugated), each summed in row
	// order exactly as the scalar sweep sums it (lanes k >= Lanes carry
	// nothing).
	App, Aqq, ApqRe, ApqIm [4]float64
	// Read by JacobiRotate: each lane's rotation, cs real and
	// sn = SnRe + i*SnIm, and its mask (all-ones rotates the pair, zero
	// leaves both columns bit-unchanged).
	Cs, SnRe, SnIm [4]float64
	Mask           [4]uint64
	P, Q, Lanes    int
}

// checkQuads panics unless the quads' columns are in range, each quad's
// two column groups are disjoint, and only the last quad has fewer than
// four lanes.
//
//cbs:hotpath
func checkQuads(w *Block[float64], quads []JacobiQuad) {
	for i := range quads {
		q := &quads[i]
		if q.Lanes < 1 || q.Lanes > 4 || q.Lanes < 4 && i != len(quads)-1 ||
			q.P < 0 || q.Q >= w.nb || q.P+q.Lanes > q.Q-q.Lanes+1 {
			panic("soa: Jacobi quad out of range")
		}
	}
}

// JacobiDots computes every quad's sums from w's columns: per row, in row
// order, app += ar*ar + ai*ai, aqq += br*br + bi*bi, and apq += conj(a)*b
// as Go computes it, re += ar*br - (-ai)*bi, im += ar*bi + (-ai)*br. The
// quads must not share a column (the pairs of one anti-diagonal).
//
//cbs:hotpath
func JacobiDots(w *Block[float64], quads []JacobiQuad) {
	checkQuads(w, quads)
	if len(quads) == 0 {
		return
	}
	if HasAVX2 {
		jacobiDotsAVX2(w.Re, w.Im, w.nb, &quads[0], len(quads))
		return
	}
	jacobiDotsScalar(w.Re, w.Im, w.nb, quads)
}

//cbs:hotpath
func jacobiDotsScalar(re, im []float64, nb int, quads []JacobiQuad) {
	for j := range quads {
		d := &quads[j]
		for k := 0; k < d.Lanes; k++ {
			a, b := d.P+k, d.Q-k
			var app, aqq, apqRe, apqIm float64
			for o := 0; o+nb <= len(re); o += nb {
				ar, ai, br, bi := re[o+a], im[o+a], re[o+b], im[o+b]
				app += ar*ar + ai*ai
				aqq += br*br + bi*bi
				nai := -ai
				apqRe += ar*br - nai*bi
				apqIm += ar*bi + nai*br
			}
			d.App[k], d.Aqq[k], d.ApqRe[k], d.ApqIm[k] = app, aqq, apqRe, apqIm
		}
	}
}

// JacobiRotate applies each quad's masked lane rotations to its pairs of
// w's columns in every row, as Go's complex128 arithmetic computes
// a' = complex(cs, 0)*a - conj(sn)*b, b' = sn*a + complex(cs, 0)*b —
// including the 0*x terms of the real cs:
//
//	re a' = (cs*ar - 0*ai) - (snr*br - (-sni)*bi)
//	im a' = (cs*ai + 0*ar) - (snr*bi + (-sni)*br)
//	re b' = (snr*ar - sni*ai) + (cs*br - 0*bi)
//	im b' = (snr*ai + sni*ar) + (cs*bi + 0*br)
//
// The quads must not share a column.
//
//cbs:hotpath
func JacobiRotate(w *Block[float64], quads []JacobiQuad) {
	checkQuads(w, quads)
	if len(quads) == 0 {
		return
	}
	if HasAVX2 {
		jacobiRotateAVX2(w.Re, w.Im, w.nb, &quads[0], len(quads))
		return
	}
	jacobiRotateScalar(w.Re, w.Im, w.nb, quads)
}

//cbs:hotpath
func jacobiRotateScalar(re, im []float64, nb int, quads []JacobiQuad) {
	for j := range quads {
		r := &quads[j]
		for k := 0; k < r.Lanes; k++ {
			if r.Mask[k] == 0 {
				continue
			}
			cs, snr, sni := r.Cs[k], r.SnRe[k], r.SnIm[k]
			nsi := -sni
			a, b := r.P+k, r.Q-k
			for o := 0; o+nb <= len(re); o += nb {
				ar, ai, br, bi := re[o+a], im[o+a], re[o+b], im[o+b]
				re[o+a] = (cs*ar - 0*ai) - (snr*br - nsi*bi)
				im[o+a] = (cs*ai + 0*ar) - (snr*bi + nsi*br)
				re[o+b] = (snr*ar - sni*ai) + (cs*br - 0*bi)
				im[o+b] = (snr*ai + sni*ar) + (cs*bi + 0*br)
			}
		}
	}
}
