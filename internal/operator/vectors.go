package operator

import (
	"cbs/internal/soa"
	"cbs/internal/zlinalg"
)

// Vectors applies a backend's blocks to complex vectors through n x 1
// planes it owns: pack v, run one plane kernel, unpack. H0 v is the
// shifted apply at shift 0 subtracted from zero (the kernel gives
// -H0 v, and 0 - x returns a zero as +0 where plain negation would flip
// it), and H± v is the accumulate apply with coefficient 1 on zeroed
// planes. Since a column's bits do not depend on the block width, these
// are the bits of any column of a block solve. The scratch makes a
// Vectors single-goroutine: each goroutine builds its own.
type Vectors struct {
	b      Planes
	v, out *soa.Block[float64]
	s      []complex128
}

// NewVectors returns the single-vector applies of b.
func NewVectors(b Backend) *Vectors {
	n := b.N()
	return &Vectors{b: b, v: soa.NewBlock[float64](n, 1), out: soa.NewBlock[float64](n, 1),
		s: make([]complex128, n)}
}

// H0 computes out = H0 v.
func (x *Vectors) H0(v, out []complex128) {
	soa.Pack(x.v, v)
	x.h0(out)
}

// Hp computes out = H+ v.
func (x *Vectors) Hp(v, out []complex128) {
	soa.Pack(x.v, v)
	x.accum(true, out)
}

// Hm computes out = H- v.
func (x *Vectors) Hm(v, out []complex128) {
	soa.Pack(x.v, v)
	x.accum(false, out)
}

// Bloch computes out = H(lambda) v = H0 v + lambda H+ v + lambda^{-1} H- v
// for a nonzero lambda, packing v once. H+ v and then H- v enter out
// through zlinalg.Axpy.
func (x *Vectors) Bloch(lambda complex128, v, out []complex128) {
	soa.Pack(x.v, v)
	x.h0(out)
	x.accum(true, x.s)
	zlinalg.Axpy(lambda, x.s, out)
	x.accum(false, x.s)
	zlinalg.Axpy(1/lambda, x.s, out)
}

// h0 writes H0 of the packed vector to out.
func (x *Vectors) h0(out []complex128) {
	x.b.ApplyShiftedH0Planes(0, x.v, x.out)
	soa.Unpack(out, x.out)
	for i := range out {
		out[i] = 0 - out[i]
	}
}

// accum writes H+ (plus) or H- of the packed vector to out.
func (x *Vectors) accum(plus bool, out []complex128) {
	x.out.Zero()
	if plus {
		x.b.AccumHpPlanes(1, 0, x.v, x.out)
	} else {
		x.b.AccumHmPlanes(1, 0, x.v, x.out)
	}
	soa.Unpack(out, x.out)
}

// denseCols is the widest identity block the dense assemblies apply at
// once: its four plane blocks hold 64 n denseCols bytes.
const denseCols = 64

// DenseBlocks assembles H0, H+ and H- of b densely, so column j holds the
// Vectors apply to the unit vector e_j bit for bit. O(n^2) storage, for
// small cells (transport leads).
func DenseBlocks(b Backend) (h0, hp, hm *zlinalg.Matrix) {
	n := b.N()
	h0, hp, hm = zlinalg.NewMatrix(n, n), zlinalg.NewMatrix(n, n), zlinalg.NewMatrix(n, n)
	denseChunks(b, func(i, j int, z0, zp, zm complex128) {
		h0.Set(i, j, z0)
		hp.Set(i, j, zp)
		hm.Set(i, j, zm)
	})
	return h0, hp, hm
}

// DenseBloch assembles H(lambda) = H0 + lambda H+ + lambda^{-1} H- of b
// densely for a nonzero lambda, so column j holds Vectors.Bloch applied to
// e_j bit for bit (conventional bands). Only the result is n x n.
func DenseBloch(b Backend, lambda complex128) *zlinalg.Matrix {
	n := b.N()
	h := zlinalg.NewMatrix(n, n)
	il := 1 / lambda
	denseChunks(b, func(i, j int, z0, zp, zm complex128) {
		z := z0 + lambda*zp
		h.Set(i, j, z+il*zm)
	})
	return h
}

// denseChunks applies the three kernels to the identity denseCols columns
// at a time and hands every element (i, j) of H0, H+ and H- to set.
func denseChunks(b Backend, set func(i, j int, z0, zp, zm complex128)) {
	n := b.N()
	w := min(n, denseCols)
	v, o0, op, om := soa.NewBlock[float64](n, w), soa.NewBlock[float64](n, w), soa.NewBlock[float64](n, w), soa.NewBlock[float64](n, w)
	for c0 := 0; c0 < n; c0 += denseCols {
		w = min(denseCols, n-c0)
		for _, blk := range []*soa.Block[float64]{v, o0, op, om} {
			blk.Reserve(n, w)
			blk.Zero()
		}
		for c := 0; c < w; c++ {
			v.Re[(c0+c)*w+c] = 1
		}
		b.ApplyShiftedH0Planes(0, v, o0)
		b.AccumHpPlanes(1, 0, v, op)
		b.AccumHmPlanes(1, 0, v, om)
		for i := 0; i < n; i++ {
			for c := 0; c < w; c++ {
				k := i*w + c
				set(i, c0+c, complex(0-o0.Re[k], 0-o0.Im[k]), complex(op.Re[k], op.Im[k]), complex(om.Re[k], om.Im[k]))
			}
		}
	}
}
