package soa

// Row-ordered sparse kernels for small real operators on split planes (the
// tight-binding backend's H0, H+ and H-). A table lists each row's entries
// in a fixed order and the kernels apply them in that order, so a table
// built from a hop list reproduces the hop loop's arithmetic on every
// element: the same multiplies and subtractions in the same sequence. Rows
// run outermost; in a row the asm takes the columns eight and four at a
// time in vector lanes, then the last nb%4 one at a time.

// CSR is a real n x n sparse matrix in compressed-row form: row i's
// entries are ents[ptr[i]:ptr[i+1]], each a column and a value, in the
// order NewCSR was given them. NewCSR checks every column, so the kernels
// trust the table.
type CSR struct {
	n    int
	ptr  []int
	ents []csrEnt
}

// csrEnt is one stored entry; the asm reads col at offset 0 and val at 8.
type csrEnt struct {
	col int
	val float64
}

// CSREntry is one matrix element A[Row, Col] = Val.
type CSREntry struct {
	Row, Col int
	Val      float64
}

// NewCSR builds the n x n table of es. Each row keeps its entries in their
// order in es; repeated (row, col) entries stay separate terms.
func NewCSR(n int, es []CSREntry) *CSR {
	if n < 0 {
		panic("soa: NewCSR bad shape")
	}
	a := &CSR{n: n, ptr: make([]int, n+1), ents: make([]csrEnt, len(es))}
	for _, e := range es {
		if e.Row < 0 || e.Row >= n || e.Col < 0 || e.Col >= n {
			panic("soa: NewCSR entry out of range")
		}
		a.ptr[e.Row+1]++
	}
	for i := 0; i < n; i++ {
		a.ptr[i+1] += a.ptr[i]
	}
	next := append([]int(nil), a.ptr[:n]...)
	for _, e := range es {
		a.ents[next[e.Row]] = csrEnt{e.Col, e.Val}
		next[e.Row]++
	}
	return a
}

// MemoryBytes reports the table's resident bytes.
func (a *CSR) MemoryBytes() int64 {
	return int64(cap(a.ptr))*8 + int64(cap(a.ents))*16
}

// checkCSR panics unless out and v are both a.n x nb and do not share
// their planes.
//
//cbs:hotpath
func checkCSR(out, v *Block[float64], a *CSR) {
	if out.n != a.n || v.n != a.n || out.nb != v.nb {
		panic("soa: CSR kernel shape mismatch")
	}
	if out.Len() > 0 && v.Len() > 0 && (&out.Re[0] == &v.Re[0] || &out.Im[0] == &v.Im[0]) {
		panic("soa: CSR kernel input and output share planes")
	}
}

// ShiftedCSR computes out = (shift - diag(d) - A) v: per row i and column
// c, out[i, c] = (shift - d[i])*v[i, c], then out[i, c] -= val*v[col, c]
// for each entry of row i in order, on both planes.
//
//cbs:hotpath
func ShiftedCSR(out, v *Block[float64], shift float64, d []float64, a *CSR) {
	checkCSR(out, v, a)
	if len(d) != a.n {
		panic("soa: ShiftedCSR needs one diagonal entry per row")
	}
	if HasAVX2 {
		csrShiftedAVX2(out.Re, out.Im, v.Re, v.Im, v.nb, shift, d, a)
		return
	}
	csrShiftedScalar(out.Re, out.Im, v.Re, v.Im, v.nb, shift, d, a)
}

//cbs:hotpath
func csrShiftedScalar(oRe, oIm, vRe, vIm []float64, nb int, shift float64, d []float64, a *CSR) {
	for i, e := range d {
		di := shift - e
		or, oi := oRe[i*nb:][:nb], oIm[i*nb:][:nb]
		vr, vi := vRe[i*nb:][:nb], vIm[i*nb:][:nb]
		for c := range or {
			or[c] = di * vr[c]
			oi[c] = di * vi[c]
		}
		for _, en := range a.ents[a.ptr[i]:a.ptr[i+1]] {
			t := en.val
			vr, vi := vRe[en.col*nb:][:nb], vIm[en.col*nb:][:nb]
			for c := range or {
				or[c] -= t * vr[c]
				oi[c] -= t * vi[c]
			}
		}
	}
}

// AccumCSR accumulates out += (cr + i*ci) A v: for each entry of row i in
// order, with er = cr*val and ei = ci*val,
//
//	out.Re[i, c] += er*v.Re[col, c] - ei*v.Im[col, c]
//	out.Im[i, c] += er*v.Im[col, c] + ei*v.Re[col, c]
//
//cbs:hotpath
func AccumCSR(out, v *Block[float64], cr, ci float64, a *CSR) {
	checkCSR(out, v, a)
	if HasAVX2 {
		csrAccumAVX2(out.Re, out.Im, v.Re, v.Im, v.nb, cr, ci, a)
		return
	}
	csrAccumScalar(out.Re, out.Im, v.Re, v.Im, v.nb, cr, ci, a)
}

//cbs:hotpath
func csrAccumScalar(oRe, oIm, vRe, vIm []float64, nb int, cr, ci float64, a *CSR) {
	for i := 0; i < a.n; i++ {
		or, oi := oRe[i*nb:][:nb], oIm[i*nb:][:nb]
		for _, en := range a.ents[a.ptr[i]:a.ptr[i+1]] {
			er, ei := cr*en.val, ci*en.val
			vr, vi := vRe[en.col*nb:][:nb], vIm[en.col*nb:][:nb]
			for c := range or {
				or[c] += er*vr[c] - ei*vi[c]
				oi[c] += er*vi[c] + ei*vr[c]
			}
		}
	}
}
