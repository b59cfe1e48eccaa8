// Package soa provides the split-complex storage layout of the blocked hot
// path and the kernels that run on it: a block of nb column vectors over n
// grid points is held as two parallel float planes Re and Im, both indexed
// exactly like the row-major []complex128 block they mirror (element (i, k)
// at position i*nb+k). The interleaved split keeps the stencil's
// per-grid-point streaming pattern while turning every inner loop into
// contiguous *real* arithmetic on one plane.
//
// The kernels own the loops over grid points, so a caller dispatches once
// per unit of work, not once per point: StencilRow writes a whole output
// row of the FD stencil, 16 elements per term pass; GatherDot and
// ScatterAxpy walk a whole projector support; AxpyRows adds whole coupled
// planes; DotCols, AlphaCols and BetaCols run the per-column Krylov
// recurrences over a whole block in three passes per iteration; and
// JacobiDots and JacobiRotate run the pairs of one anti-diagonal of a
// one-sided Jacobi SVD sweep, four per vector. Each has an AVX2 arm
// (amd64, dispatched on HasAVX2) and a scalar sibling with the same
// per-element arithmetic in the same order.
//
// The planes hold float64, so plane arithmetic is bit-identical to the
// interleaved complex128 arithmetic; pack/unpack shims convert at the
// []complex128 API boundary only. Kernels elsewhere must not re-box plane
// elements into complex values inside hot loops and must not rebind the
// plane headers — both invariants are policed by the soalayout vet
// analyzer.
package soa

// Float is the element type of a split-complex plane.
type Float interface {
	~float64
}

// Block is an n x nb split-complex block: Re[i*nb+k] and Im[i*nb+k] hold
// the real and imaginary parts of element (row i, column k). The planes
// always have identical length n*nb; construct blocks with NewBlock or
// Reserve so the invariant holds, and treat the plane headers as read-only
// outside this package (the soalayout analyzer enforces this).
type Block[F Float] struct {
	Re, Im []F

	n, nb int
}

// NewBlock allocates an n x nb block with zeroed planes.
func NewBlock[F Float](n, nb int) *Block[F] {
	b := &Block[F]{}
	b.Reserve(n, nb)
	return b
}

// Reserve resizes the block to n x nb, reusing plane capacity when
// sufficient (the steady-state contour loop never reallocates). Newly
// exposed elements are NOT cleared; call Zero when a fresh block is needed.
func (b *Block[F]) Reserve(n, nb int) {
	if n < 0 || nb < 1 {
		panic("soa: Reserve bad shape")
	}
	b.n, b.nb = n, nb
	need := n * nb
	if cap(b.Re) < need {
		b.Re = make([]F, need)
		b.Im = make([]F, need)
		return
	}
	b.Re = b.Re[:need]
	b.Im = b.Im[:need]
}

// Rows returns rows [r0, r1) of b as a block sharing b's planes: writes
// through it are writes to b.
func (b *Block[F]) Rows(r0, r1 int) *Block[F] {
	if r0 < 0 || r1 > b.n || r0 >= r1 {
		panic("soa: Rows out of range")
	}
	lo, hi := r0*b.nb, r1*b.nb
	return &Block[F]{Re: b.Re[lo:hi:hi], Im: b.Im[lo:hi:hi], n: r1 - r0, nb: b.nb}
}

// N returns the row count.
//
//cbs:hotpath
func (b *Block[F]) N() int { return b.n }

// NB returns the column count.
//
//cbs:hotpath
func (b *Block[F]) NB() int { return b.nb }

// Len returns the plane length n*nb.
//
//cbs:hotpath
func (b *Block[F]) Len() int { return b.n * b.nb }

// Zero clears both planes.
//
//cbs:hotpath
func (b *Block[F]) Zero() {
	for i := range b.Re {
		b.Re[i] = 0
		b.Im[i] = 0
	}
}

// MemoryBytes reports the resident bytes of both planes.
func (b *Block[F]) MemoryBytes() int64 {
	return int64(cap(b.Re)+cap(b.Im)) * 8
}

// Pack splits a row-major []complex128 block into the planes of dst
// (boundary shim; dst must already have the matching shape).
func Pack[F Float](dst *Block[F], src []complex128) {
	if len(src) != dst.Len() {
		panic("soa: Pack length mismatch")
	}
	re, im := dst.Re, dst.Im
	for i, z := range src {
		re[i] = F(real(z))
		im[i] = F(imag(z))
	}
}

// Unpack re-boxes the planes of src into a row-major []complex128 block
// (boundary shim).
func Unpack[F Float](dst []complex128, src *Block[F]) {
	if len(dst) != src.Len() {
		panic("soa: Unpack length mismatch")
	}
	re, im := src.Re, src.Im
	for i := range dst {
		dst[i] = complex(float64(re[i]), float64(im[i]))
	}
}
