package tb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cbs/internal/operator"
	"cbs/internal/soa"
	"cbs/internal/zlinalg"
)

// The hop loops the plane applies replaced, kept as their oracle: the CSR
// tables must give every element the bits these loops give it, and
// operator.Vectors and operator.DenseBlocks, which derive the single-vector
// applies and dense blocks from the tables, the bits of the complex128
// loops below.

// hopH0 computes out = H0 v on complex vectors.
func hopH0(b *Backend, v, out []complex128) {
	for i := range out {
		out[i] = complex(b.onsite[i], 0) * v[i]
	}
	for _, h := range b.intra {
		t := complex(h.t, 0)
		out[h.i] += t * v[h.j]
		out[h.j] += t * v[h.i]
	}
}

// hopHp computes out = H+ v on complex vectors.
func hopHp(b *Backend, v, out []complex128) {
	clear(out)
	for _, h := range b.inter {
		out[h.i] += complex(h.t, 0) * v[h.j]
	}
}

// hopHm computes out = H- v = H+^T v on complex vectors.
func hopHm(b *Backend, v, out []complex128) {
	clear(out)
	for _, h := range b.inter {
		out[h.j] += complex(h.t, 0) * v[h.i]
	}
}

func hopShiftedH0(b *Backend, shift float64, v, out *soa.Block[float64]) {
	nb := v.NB()
	vr, vi, or, oi := v.Re, v.Im, out.Re, out.Im
	for i, e := range b.onsite {
		d := shift - e
		for k := i * nb; k < i*nb+nb; k++ {
			or[k] = d * vr[k]
			oi[k] = d * vi[k]
		}
	}
	for _, h := range b.intra {
		ri, rj := h.i*nb, h.j*nb
		for c := 0; c < nb; c++ {
			or[ri+c] -= h.t * vr[rj+c]
			oi[ri+c] -= h.t * vi[rj+c]
			or[rj+c] -= h.t * vr[ri+c]
			oi[rj+c] -= h.t * vi[ri+c]
		}
	}
}

func hopAccum(out, v *soa.Block[float64], dst, src int, cr, ci float64) {
	nb := v.NB()
	or, oi := out.Re[dst*nb:dst*nb+nb], out.Im[dst*nb:dst*nb+nb]
	vr, vi := v.Re[src*nb:][:nb], v.Im[src*nb:][:nb]
	for c := range or {
		or[c] += cr*vr[c] - ci*vi[c]
		oi[c] += cr*vi[c] + ci*vr[c]
	}
}

func hopAccumHp(b *Backend, coefRe, coefIm float64, v, out *soa.Block[float64]) {
	for _, h := range b.inter {
		hopAccum(out, v, h.i, h.j, coefRe*h.t, coefIm*h.t)
	}
}

func hopAccumHm(b *Backend, coefRe, coefIm float64, v, out *soa.Block[float64]) {
	for _, h := range b.inter {
		hopAccum(out, v, h.j, h.i, coefRe*h.t, coefIm*h.t)
	}
}

// oracleBackends are the chains of 1, 3 and 8 sites and the slabs of 8x7,
// 1x1 and 3x5 sites the plane applies are checked on.
func oracleBackends(t *testing.T) []*Backend {
	var backends []*Backend
	for _, nc := range []int{1, 3, 8} {
		b, err := NewChain(ChainConfig{Sites: nc, Onsite: 0.3, Hopping: -1.1, A: float64(nc)})
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
	}
	for _, sh := range [][2]int{{8, 7}, {1, 1}, {3, 5}} {
		b, err := NewSlab(SlabConfig{Nx: sh[0], Ny: sh[1], Onsite: -0.2, Hopping: 0.7, A: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
	}
	return backends
}

// TestPlaneAppliesMatchHopLoops: the three plane applies are bit-equal to
// the hop loops on the oracle backends, at block widths 1..9 and 16, and
// allocate nothing.
func TestPlaneAppliesMatchHopLoops(t *testing.T) {
	const shift = 0.37
	coefRe, coefIm := 0.4, -1.2
	for _, b := range oracleBackends(t) {
		n := b.N()
		for _, nb := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
			rng := rand.New(rand.NewSource(int64(n*100 + nb)))
			v, prior := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
			for i := range v.Re {
				v.Re[i], v.Im[i] = rng.NormFloat64(), rng.NormFloat64()
				prior.Re[i], prior.Im[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			for _, k := range []struct {
				name        string
				planes, hop func(out *soa.Block[float64])
			}{
				{"ShiftedH0",
					func(out *soa.Block[float64]) { b.ApplyShiftedH0Planes(shift, v, out) },
					func(out *soa.Block[float64]) { hopShiftedH0(b, shift, v, out) }},
				{"AccumHp",
					func(out *soa.Block[float64]) { b.AccumHpPlanes(coefRe, coefIm, v, out) },
					func(out *soa.Block[float64]) { hopAccumHp(b, coefRe, coefIm, v, out) }},
				{"AccumHm",
					func(out *soa.Block[float64]) { b.AccumHmPlanes(coefRe, coefIm, v, out) },
					func(out *soa.Block[float64]) { hopAccumHm(b, coefRe, coefIm, v, out) }},
			} {
				name := fmt.Sprintf("%s %s nb=%d", b.Descriptor(), k.name, nb)
				got, want := soa.NewBlock[float64](n, nb), soa.NewBlock[float64](n, nb)
				for _, o := range []*soa.Block[float64]{got, want} {
					copy(o.Re, prior.Re)
					copy(o.Im, prior.Im)
				}
				k.planes(got)
				k.hop(want)
				for i := range want.Re {
					if math.Float64bits(got.Re[i]) != math.Float64bits(want.Re[i]) ||
						math.Float64bits(got.Im[i]) != math.Float64bits(want.Im[i]) {
						t.Fatalf("%s: element %d = (%g, %g), hop loop (%g, %g)",
							name, i, got.Re[i], got.Im[i], want.Re[i], want.Im[i])
					}
				}
				if allocs := testing.AllocsPerRun(5, func() { k.planes(got) }); allocs != 0 {
					t.Errorf("%s: %.0f allocations per call, want 0", name, allocs)
				}
			}
		}
	}
}

// TestVectorsMatchHopLoops: on the oracle backends operator.Vectors gives
// the complex hop loops' bits for H0, H+, H- and H(lambda) on a random
// vector, and every column of operator.DenseBlocks and operator.DenseBloch
// is the loops applied to its unit vector, signed zeros included.
func TestVectorsMatchHopLoops(t *testing.T) {
	same := func(name string, got, want []complex128) {
		t.Helper()
		for i := range want {
			if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
				math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
				t.Fatalf("%s: element %d = %v, hop loop %v", name, i, got[i], want[i])
			}
		}
	}
	for _, b := range oracleBackends(t) {
		n := b.N()
		x := operator.NewVectors(b)
		rng := rand.New(rand.NewSource(int64(n)))
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got, want, scratch := make([]complex128, n), make([]complex128, n), make([]complex128, n)
		for _, k := range []struct {
			name    string
			derived func(v, out []complex128)
			oracle  func(b *Backend, v, out []complex128)
		}{{"H0", x.H0, hopH0}, {"H+", x.Hp, hopHp}, {"H-", x.Hm, hopHm}} {
			k.derived(v, got)
			k.oracle(b, v, want)
			same(b.Descriptor()+" "+k.name, got, want)
		}
		lambda := complex(0.3, -0.8)
		bloch := func(b *Backend, v, out []complex128) {
			hopH0(b, v, out)
			hopHp(b, v, scratch)
			zlinalg.Axpy(lambda, scratch, out)
			hopHm(b, v, scratch)
			zlinalg.Axpy(1/lambda, scratch, out)
		}
		x.Bloch(lambda, v, got)
		bloch(b, v, want)
		same(b.Descriptor()+" Bloch", got, want)

		h0, hp, hm := operator.DenseBlocks(b)
		hk := operator.DenseBloch(b, lambda)
		e := make([]complex128, n)
		for j := range e {
			e[j] = 1
			for _, k := range []struct {
				name   string
				dense  *zlinalg.Matrix
				oracle func(b *Backend, v, out []complex128)
			}{{"dense H0", h0, hopH0}, {"dense H+", hp, hopHp}, {"dense H-", hm, hopHm}, {"dense H(lambda)", hk, bloch}} {
				k.oracle(b, e, want)
				same(fmt.Sprintf("%s %s col %d", b.Descriptor(), k.name, j), k.dense.Col(j), want)
			}
			e[j] = 0
		}
	}
}

// BenchmarkTBPlanes times the three plane applies of one P(z) block apply
// on the 8x7 slab at block width 8, the transport_tb shape. CBS_NO_AVX2=1
// times the scalar arm.
func BenchmarkTBPlanes(bm *testing.B) {
	b, err := NewSlab(SlabConfig{Nx: 8, Ny: 7, Onsite: 0, Hopping: -1, A: 1})
	if err != nil {
		bm.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	v, out := soa.NewBlock[float64](b.N(), 8), soa.NewBlock[float64](b.N(), 8)
	for i := range v.Re {
		v.Re[i], v.Im[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		b.ApplyShiftedH0Planes(0.37, v, out)
		b.AccumHpPlanes(0.4, -1.2, v, out)
		b.AccumHmPlanes(-0.9, 0.3, v, out)
	}
}
