package core

import (
	"cbs/internal/dist"
	"cbs/internal/qep"
	"cbs/internal/zlinalg"
)

// MemoryEstimate returns the resident bytes of a CBS solve with the given
// options: the matrix-free operator (O(N)), the moment accumulator
// (O(M*N), M = Nrh*Nmm), the probe block, the per-worker Krylov vectors and
// the small dense Hankel pair and SVD work. This is the quantity compared
// against the OBM baseline in Fig. 4(b).
func MemoryEstimate(q *qep.Problem, opts Options) int64 {
	opts.Parallel = opts.Parallel.resolve(opts.Nrh, opts.Nint)
	n := int64(q.Dim())
	nrh := int64(opts.Nrh)
	nmm := int64(opts.Nmm)
	m := nrh * nmm

	var b int64
	b += q.B.MemoryBytes()      // operator (potential + projectors + tables)
	b += 2 * nmm * n * nrh * 16 // moment accumulator
	b += n * nrh * 16           // probe block V
	b += 2 * m * m * 16         // Hankel pair
	// SVD work: the planes of R† and V_x of the preconditioned sweep and
	// the buffer V is formed in before its rows go to the Hankel's order.
	b += zlinalg.SVDWorkBytes(int(m))
	// Point-loop state: each (top, mid) worker of the resolved layout (the
	// one solveAll starts) owns one blockWorker and runs one block solve at
	// a time, and each top block shares its right-hand-side planes across
	// its mid workers and keeps the spare solution planes its workers park
	// out-of-turn points with.
	top := int64(opts.Parallel.Top)
	nb := (nrh + top - 1) / top // columns per top block
	solve := 6 * n * nb * 16    // the workspace's six Krylov planes
	if ndm := opts.Parallel.Ndm; ndm > 1 {
		if ds, err := dist.NewSolver(q, ndm); err == nil {
			solve = ds.MemoryBytes(int(nb))
		}
	}
	b += top * int64(opts.Parallel.Mid) * (blockWorkerBytes(n, nb) + solve)
	b += top * n * nb * 16
	b += top * int64(pointSpares(opts.Parallel.Mid)) * 2 * n * nb * 16
	return b
}
