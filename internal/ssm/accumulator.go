package ssm

import (
	"fmt"
	"sync"

	"cbs/internal/soa"
	"cbs/internal/zlinalg"
)

// Accumulator builds the complex moment matrices S_k incrementally, one
// solved column at a time, so the solution blocks Y_j never need to be
// stored: this realizes the paper's O(M*N) memory footprint (M = Nrh*Nmm)
// instead of O(Nint*Nrh*N). It is safe for concurrent use by the parallel
// solve layers.
type Accumulator struct {
	n, nrh, nmm int
	mu          sync.Mutex
	moments     []*zlinalg.Matrix // 2*nmm blocks of N x Nrh
}

// NewAccumulator creates an empty moment accumulator.
func NewAccumulator(n, nrh, nmm int) (*Accumulator, error) {
	if n < 1 || nrh < 1 || nmm < 1 {
		return nil, fmt.Errorf("%w: invalid accumulator dimensions n=%d nrh=%d nmm=%d", ErrBadShape, n, nrh, nmm)
	}
	a := &Accumulator{n: n, nrh: nrh, nmm: nmm}
	a.moments = make([]*zlinalg.Matrix, 2*nmm)
	for k := range a.moments {
		a.moments[k] = zlinalg.NewMatrix(n, nrh)
	}
	return a, nil
}

// Add accumulates one solved column y = P(z)^{-1} V[:,col] with quadrature
// weight w: S_k[:,col] += w * z^k * y for all k.
func (a *Accumulator) Add(z, w complex128, col int, y []complex128) {
	if len(y) != a.n {
		panic("ssm: Accumulator.Add length mismatch")
	}
	if col < 0 || col >= a.nrh {
		panic("ssm: Accumulator.Add column out of range")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	zk := w
	for k := 0; k < 2*a.nmm; k++ {
		accumColumn(a.moments[k].Data, y, zk, col, a.nrh)
		zk *= z
	}
}

// accumColumn is the locked inner kernel of Add: dst[:,col] += zk * y over
// the row-major moment storage of row stride nrh.
//
//cbs:hotpath
func accumColumn(dst, y []complex128, zk complex128, col, nrh int) {
	for i := range y {
		dst[i*nrh+col] += zk * y[i]
	}
}

// AddPlanes accumulates nb solved columns at once from the split-complex
// planes of y (the blocked-solver layout: the nb values of grid point i at
// y.Re[i*nb:(i+1)*nb] and y.Im[i*nb:(i+1)*nb]), covering probe columns
// col0..col0+nb-1: S_k[:,col0+c] += w * z^k * y[:,c]. One call takes the
// accumulator mutex once per quadrature point instead of once per column,
// which removes the lock contention of the per-column Add path under the
// parallel layers.
func (a *Accumulator) AddPlanes(z, w complex128, col0 int, y *soa.Block[float64]) {
	nb := y.NB()
	if y.N() != a.n {
		panic("ssm: AddPlanes length mismatch")
	}
	if col0 < 0 || col0+nb > a.nrh {
		panic("ssm: AddPlanes columns out of range")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	zk := w
	for k := 0; k < 2*a.nmm; k++ {
		accumPlanes(a.moments[k].Data, y.Re, y.Im, zk, col0, nb, a.nrh)
		zk *= z
	}
}

// accumPlanes is the locked inner kernel of AddPlanes: dst[:,col0+c] +=
// zk * y[:,c] for the nb columns of the planes yRe, yIm. The complex
// multiply is written out on the parts as complex128 arithmetic performs
// it, so every moment entry gets the bits of Add on the same column.
//
//cbs:hotpath
func accumPlanes(dst []complex128, yRe, yIm []float64, zk complex128, col0, nb, nrh int) {
	zr, zi := real(zk), imag(zk)
	n := len(yRe) / nb
	for i := 0; i < n; i++ {
		row := dst[i*nrh+col0 : i*nrh+col0+nb]
		re, im := yRe[i*nb:i*nb+nb], yIm[i*nb:i*nb+nb]
		for c := range row {
			row[c] += complex(zr*re[c]-zi*im[c], zr*im[c]+zi*re[c])
		}
	}
}

// AddBlock accumulates a whole solution block Y = P(z)^{-1} V.
func (a *Accumulator) AddBlock(z, w complex128, y *zlinalg.Matrix) {
	if y.Rows != a.n || y.Cols != a.nrh {
		panic("ssm: AddBlock shape mismatch")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	zk := w
	for k := 0; k < 2*a.nmm; k++ {
		accumScaled(a.moments[k].Data, y.Data, zk)
		zk *= z
	}
}

// accumScaled is the locked inner kernel of AddBlock: dst += zk * y.
//
//cbs:hotpath
func accumScaled(dst, y []complex128, zk complex128) {
	for i, v := range y {
		dst[i] += zk * v
	}
}

// ScaleColumns rescales probe column c of every moment block by
// factors[c]: the graceful-degradation hook of the contour solve. When a
// (quadrature point, column) solve exhausts the recovery ladder its
// contribution is excluded from the moments, and the surviving quadrature
// weights of that column are renormalized by contour.RenormFactor — which,
// because the moments are weight-linear, is exactly a uniform scaling of
// the column. A factor of 1 marks a clean column.
func (a *Accumulator) ScaleColumns(factors []float64) {
	if len(factors) != a.nrh {
		panic("ssm: ScaleColumns length mismatch")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, m := range a.moments {
		for i := 0; i < a.n; i++ {
			row := m.Data[i*a.nrh : i*a.nrh+a.nrh]
			for c, f := range factors {
				if f != 1 {
					row[c] *= complex(f, 0)
				}
			}
		}
	}
}

// Moments returns the accumulated moment blocks (not a copy).
func (a *Accumulator) Moments() []*zlinalg.Matrix { return a.moments }

// MemoryBytesUsed reports the accumulator's resident bytes.
func (a *Accumulator) MemoryBytesUsed() int64 {
	return int64(2*a.nmm) * int64(a.n) * int64(a.nrh) * 16
}

// ExtractFromMoments runs steps 2b-3 of Algorithm 1 directly from
// accumulated moment blocks.
func ExtractFromMoments(moments []*zlinalg.Matrix, v *zlinalg.Matrix, opt Options) (*Result, error) {
	if opt.Nmm < 1 {
		return nil, fmt.Errorf("%w: Nmm = %d must be >= 1", ErrBadOptions, opt.Nmm)
	}
	if len(moments) != 2*opt.Nmm {
		return nil, fmt.Errorf("%w: %d moment blocks, want %d", ErrBadShape, len(moments), 2*opt.Nmm)
	}
	if opt.Delta <= 0 {
		return nil, fmt.Errorf("%w: Delta = %g must be positive", ErrBadOptions, opt.Delta)
	}
	n, nrh := v.Rows, v.Cols
	for k, m := range moments {
		if m.Rows != n || m.Cols != nrh {
			return nil, fmt.Errorf("%w: moment %d has shape %dx%d, want %dx%d", ErrBadShape, k, m.Rows, m.Cols, n, nrh)
		}
	}
	return extract(moments, v, opt)
}
