package zlinalg

import (
	"errors"
	"math"
	"math/cmplx"
	"sort"
	"sync"
	"unsafe"

	"cbs/internal/soa"
)

// SVDResult holds a singular value decomposition A = U * diag(S) * V†,
// with U m-by-r, V n-by-r (r = min(m,n)) and S sorted descending.
type SVDResult struct {
	U *Matrix
	S []float64
	V *Matrix
}

// maxJacobiSweeps bounds the number of one-sided Jacobi sweeps.
const maxJacobiSweeps = 60

// SVD computes the thin singular value decomposition of a using the
// one-sided Jacobi method, which delivers high relative accuracy even for
// tiny singular values -- important because the Sakurai-Sugiura rank filter
// thresholds at delta = 1e-10 relative to sigma_1.
//
// Each sweep visits the pairs (p, q), p < q, of the row-cyclic order, on
// split re/im planes of W and V. In that order pair (p, q) depends only on
// (p, q-1) and (p-1, q), so the sweep runs it anti-diagonal by
// anti-diagonal (p+q = 1, 2, ...): the diagonal's pairs are independent,
// so soa.JacobiDots and soa.JacobiRotate take all of them in one pass over
// the rows, four at a time in vector lanes. Every column sees the rotations
// of the row-cyclic sweep in the same order, so S, U and V are
// bit-identical to it.
//
// The rotations are decided on W alone, and V never feeds back into W, so
// a sweep logs its rotating quads and replays the log on V afterwards:
// with cores > 1 on a goroutine that overlaps W's next sweep, otherwise
// inline before it. V sees the same rotations in the same order either
// way, and no goroutine outlives the call.
func SVD(a *Matrix, cores int) (*SVDResult, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		// Work on the transpose and swap U <-> V.
		r, err := SVD(a.ConjTranspose(), cores)
		if err != nil {
			return nil, err
		}
		return &SVDResult{U: r.V, S: r.S, V: r.U}, nil
	}
	// W: columns are rotated in place until mutually orthogonal.
	w := soa.NewBlock[float64](m, n)
	soa.Pack(w, a.Data)
	v := soa.NewBlock[float64](n, n)
	for j := 0; j < n; j++ {
		v.Re[j*n+j] = 1
	}
	eps := 2.220446049250313e-16
	tol := math.Sqrt(float64(m)) * eps

	// One anti-diagonal holds at most n/2 pairs.
	quads := make([]soa.JacobiQuad, n/8+1)
	// The log W records while V replays the previous one, or one log when
	// the replay is inline.
	logs := make([]rotationLog, rotationLogs(cores))
	for i := range logs {
		logs[i] = rotationLog{quads: make([]soa.JacobiQuad, 0, sweepQuads(n)), ends: make([]int, 0, 2*n)}
	}
	rep := &replayer{v: v, async: cores > 1}
	defer rep.wait()
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		log := &logs[sweep%len(logs)]
		log.quads, log.ends = log.quads[:0], log.ends[:0]
		off := 0
		for s := 1; s <= 2*n-3; s++ {
			last := (s - 1) / 2 // pairs (p, s-p) for max(0, s-n+1) <= p <= last
			nq := 0
			for p := max(0, s-n+1); p <= last; p += 4 {
				quads[nq] = soa.JacobiQuad{P: p, Q: s - p, Lanes: min(4, last-p+1)}
				nq++
			}
			soa.JacobiDots(w, quads[:nq])
			start := len(log.quads)
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
					log.quads = append(log.quads, *q)
				}
			}
			if len(log.quads) > start {
				soa.JacobiRotate(w, log.quads[start:])
				log.ends = append(log.ends, len(log.quads))
			}
		}
		rep.replay(log)
		if off == 0 {
			break
		}
		if sweep == maxJacobiSweeps-1 {
			return nil, errors.New("zlinalg: Jacobi SVD failed to converge")
		}
	}
	rep.wait()

	// Singular values are the column norms; U columns the normalized columns.
	norm2, junk := make([]float64, n), make([]float64, n)
	soa.DotCols(norm2, junk, w, w) // per column, sum of re*re + im*im in row order
	type sv struct {
		s   float64
		idx int
	}
	svs := make([]sv, n)
	for j := 0; j < n; j++ {
		svs[j] = sv{math.Sqrt(norm2[j]), j}
	}
	sort.Slice(svs, func(i, j int) bool { return svs[i].s > svs[j].s })

	u := NewMatrix(m, n)
	vOut := NewMatrix(n, n)
	s := make([]float64, n)
	for k, e := range svs {
		s[k] = e.s
		j := e.idx
		if e.s > 0 {
			inv := complex(1/e.s, 0)
			for i := 0; i < m; i++ {
				u.Set(i, k, complex(w.Re[i*n+j], w.Im[i*n+j])*inv)
			}
		}
		for i := 0; i < n; i++ {
			vOut.Set(i, k, complex(v.Re[i*n+j], v.Im[i*n+j]))
		}
	}
	return &SVDResult{U: u, S: s, V: vOut}, nil
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

// rotationLog is one sweep's rotating quads in sweep order: anti-diagonal
// d's are quads[ends[d-1]:ends[d]] (diagonals without a rotation left out).
type rotationLog struct {
	quads []soa.JacobiQuad
	ends  []int
}

// apply rotates v's columns by the logged rotations, diagonal by diagonal.
func (l *rotationLog) apply(v *soa.Block[float64]) {
	start := 0
	for _, end := range l.ends {
		soa.JacobiRotate(v, l.quads[start:end])
		start = end
	}
}

// replayer applies each sweep's log to V: on a goroutine when async, which
// the next replay or wait joins first, else inline.
type replayer struct {
	v     *soa.Block[float64]
	async bool
	wg    sync.WaitGroup
}

func (r *replayer) replay(l *rotationLog) {
	r.wg.Wait()
	if !r.async {
		l.apply(r.v)
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		l.apply(r.v)
	}()
}

// wait returns once V holds every replayed sweep.
func (r *replayer) wait() { r.wg.Wait() }

// rotationLogs is the number of logs SVD keeps: two when V replays on a
// goroutine (one replaying, one recording), else one.
func rotationLogs(cores int) int {
	if cores > 1 {
		return 2
	}
	return 1
}

// sweepQuads is the number of quads in one sweep over n columns, the most a
// sweep's log holds.
func sweepQuads(n int) int {
	q := 0
	for s := 1; s <= 2*n-3; s++ {
		q += ((s-1)/2 - max(0, s-n+1) + 4) / 4
	}
	return q
}

// SVDWorkBytes is the working memory of SVD on an m x n matrix (m >= n)
// with the given core count: the W and V planes and the rotation logs.
func SVDWorkBytes(m, n, cores int) int64 {
	quad := int64(unsafe.Sizeof(soa.JacobiQuad{}))
	return int64(m*n+n*n)*16 + int64(rotationLogs(cores))*(int64(sweepQuads(n))*quad+int64(2*n)*8)
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
