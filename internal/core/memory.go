package core

import (
	"cbs/internal/qep"
)

// MemoryEstimate returns the resident bytes of a CBS solve with the given
// options: the matrix-free operator (O(N)), the moment accumulator
// (O(M*N), M = Nrh*Nmm), the probe block, the per-worker Krylov vectors and
// the small dense Hankel work. This is the quantity compared against the
// OBM baseline in Fig. 4(b).
func MemoryEstimate(q *qep.Problem, opts Options) int64 {
	opts.Parallel = opts.Parallel.normalize()
	n := int64(q.Dim())
	nrh := int64(opts.Nrh)
	nmm := int64(opts.Nmm)
	m := nrh * nmm

	var b int64
	b += q.B.MemoryBytes()      // operator (potential + projectors + tables)
	b += 2 * nmm * n * nrh * 16 // moment accumulator
	b += n * nrh * 16           // probe block V
	b += 3 * m * m * 16         // Hankel pair + SVD work
	// Point-loop state: each (top, mid) worker owns one blockWorker, and each
	// top block shares its interleaved right-hand-side block (plus, on the
	// plane layout, the planar copy the plane solver reads) across its mid
	// workers.
	top := int64(opts.Parallel.Top)
	nbBlk := (nrh + top - 1) / top // columns per top block
	distributed := opts.Parallel.Ndm > 1
	planes := q.Op != nil && !distributed
	b += top * int64(opts.Parallel.Mid) * blockWorkerBytes(n, nbBlk, planes, distributed)
	rhs := n * nbBlk * 16
	if planes {
		rhs *= 2
	}
	b += top * rhs
	return b
}
