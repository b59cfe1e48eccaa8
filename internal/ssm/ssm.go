// Package ssm implements the block Sakurai-Sugiura method with Hankel
// matrices (Asakura et al., JSIAM Letters 1, 2009) for eigenproblems given
// as contour-integral moment data: from the solution blocks
// Y_j = P(z_j)^{-1} V at the quadrature nodes it forms the complex moment
// matrices, the block Hankel pencil, the SVD low-rank filter, and the small
// standard eigenproblem (paper Algorithm 1).
//
// The package is deliberately independent of the QEP: it sees only nodes,
// weights and solution blocks, so it applies unchanged to linear, quadratic
// and general nonlinear eigenvalue problems.
package ssm

import (
	"fmt"

	"cbs/internal/zlinalg"
)

// Options are the method's parameters in the paper's notation.
type Options struct {
	Nmm   int     // number of moment blocks (paper: 8)
	Delta float64 // SVD truncation threshold (paper: 1e-10)
	// AbsTol, when positive, declares the target region empty if the
	// largest Hankel singular value falls below it: with no eigenvalue
	// inside the contour the moments consist purely of quadrature noise,
	// whose scale is otherwise invisible to the relative Delta filter.
	// Downstream residual filtering makes this optional.
	AbsTol float64
}

// Result holds the extracted (approximate) eigenpairs.
type Result struct {
	Lambdas        []complex128    // m-hat approximate eigenvalues
	Vectors        *zlinalg.Matrix // N x m-hat eigenvectors (unit columns)
	Rank           int             // numerical rank m-hat of the Hankel matrix
	SingularValues []float64       // spectrum of the Hankel matrix (diagnostics)
	SVDSweeps      int             // Jacobi sweeps of the Hankel SVD (diagnostics)
}

// Extract runs steps 2-3 of Algorithm 1. zs, ws are the quadrature nodes
// and signed weights, ys[j] the N x Nrh solution block P(zs[j])^{-1} V, and
// v the probe block V itself.
func Extract(zs, ws []complex128, ys []*zlinalg.Matrix, v *zlinalg.Matrix, opt Options) (*Result, error) {
	if len(zs) == 0 || len(zs) != len(ws) || len(zs) != len(ys) {
		return nil, fmt.Errorf("%w: inconsistent quadrature data", ErrBadShape)
	}
	if opt.Nmm < 1 {
		return nil, fmt.Errorf("%w: Nmm = %d must be >= 1", ErrBadOptions, opt.Nmm)
	}
	if opt.Delta <= 0 {
		return nil, fmt.Errorf("%w: Delta = %g must be positive", ErrBadOptions, opt.Delta)
	}
	n := v.Rows
	nrh := v.Cols
	for j, y := range ys {
		if y == nil {
			return nil, fmt.Errorf("%w: missing solution block %d", ErrBadShape, j)
		}
		if y.Rows != n || y.Cols != nrh {
			return nil, fmt.Errorf("%w: solution block %d has shape %dx%d, want %dx%d", ErrBadShape, j, y.Rows, y.Cols, n, nrh)
		}
	}

	// Step 2a: complex moment matrices S_k = sum_j w_j z_j^k Y_j for
	// k = 0 .. 2*Nmm-1.
	acc, err := NewAccumulator(n, nrh, opt.Nmm)
	if err != nil {
		return nil, err
	}
	for j := range ys {
		acc.AddBlock(zs[j], ws[j], ys[j])
	}
	return extract(acc.Moments(), v, opt)
}

// extract runs steps 2b-3 of Algorithm 1 from the moment blocks.
func extract(moments []*zlinalg.Matrix, v *zlinalg.Matrix, opt Options) (*Result, error) {
	n, nrh := v.Rows, v.Cols
	nMom := len(moments)

	// Step 2b: reduced moments mu_k = V^dagger S_k and the block Hankel
	// pair  T[i][j] = mu_{i+j},  T<[i][j] = mu_{i+j+1}  (0-based).
	vh := v.ConjTranspose()
	mu := make([]*zlinalg.Matrix, nMom)
	for k := range mu {
		mu[k] = zlinalg.Mul(vh, moments[k])
	}
	m := nrh * opt.Nmm
	hank := zlinalg.NewMatrix(m, m)
	hankS := zlinalg.NewMatrix(m, m)
	for bi := 0; bi < opt.Nmm; bi++ {
		for bj := 0; bj < opt.Nmm; bj++ {
			hank.SetSlice(bi*nrh, bj*nrh, mu[bi+bj])
			hankS.SetSlice(bi*nrh, bj*nrh, mu[bi+bj+1])
		}
	}

	// Step 3a: SVD low-rank filter.
	svd, err := zlinalg.SVD(hank)
	if err != nil {
		return nil, fmt.Errorf("%w: Hankel SVD: %w", ErrRankDeficient, err)
	}
	rank := svd.Rank(opt.Delta)
	if opt.AbsTol > 0 && (len(svd.S) == 0 || svd.S[0] < opt.AbsTol) {
		rank = 0
	}
	res := &Result{Rank: rank, SingularValues: svd.S, SVDSweeps: svd.Sweeps}
	if rank == 0 {
		res.Vectors = zlinalg.NewMatrix(n, 0)
		return res, nil
	}
	u1 := svd.U.Slice(0, m, 0, rank)
	w1 := svd.V.Slice(0, m, 0, rank)

	// Step 3b: small standard eigenproblem
	// U1^dagger T< W1 Sigma1^{-1} phi = tau phi.
	small := zlinalg.Mul(u1.ConjTranspose(), zlinalg.Mul(hankS, w1))
	for j := 0; j < rank; j++ {
		inv := complex(1/svd.S[j], 0)
		for i := 0; i < rank; i++ {
			small.Set(i, j, small.At(i, j)*inv)
		}
	}
	taus, phis, err := zlinalg.Eig(small)
	if err != nil {
		return nil, fmt.Errorf("%w: small eigenproblem: %w", ErrRankDeficient, err)
	}

	// Step 3c: eigenvector recovery psi = S-hat W1 Sigma1^{-1} phi with
	// S-hat = [S_0 ... S_{Nmm-1}] (N x Nrh*Nmm).
	shat := zlinalg.NewMatrix(n, m)
	for b := 0; b < opt.Nmm; b++ {
		shat.SetSlice(0, b*nrh, moments[b])
	}
	// coef = W1 * (Sigma1^{-1} * phi).
	scaled := phis.Clone()
	for i := 0; i < rank; i++ {
		inv := complex(1/svd.S[i], 0)
		for j := 0; j < rank; j++ {
			scaled.Set(i, j, scaled.At(i, j)*inv)
		}
	}
	coef := zlinalg.Mul(w1, scaled)
	vectors := zlinalg.Mul(shat, coef)
	for j := 0; j < rank; j++ {
		col := vectors.Col(j)
		zlinalg.Normalize(col)
		vectors.SetCol(j, col)
	}
	res.Lambdas = taus
	res.Vectors = vectors
	return res, nil
}

// MemoryBytes estimates the working-set bytes of an extraction with the
// given dimensions: the 2*Nmm moment blocks (N x Nrh each) dominate -- the
// paper's O(M*N) memory with M = Nrh*Nmm.
func MemoryBytes(n, nrh, nmm int) int64 {
	m := int64(nrh) * int64(nmm)
	momBytes := int64(2*nmm) * int64(n) * int64(nrh) * 16
	hankBytes := 3 * m * m * 16
	return momBytes + hankBytes
}
