// Package linsolve provides the iterative Krylov solvers of the CBS
// pipeline: the BiCG method with simultaneous dual-system solution (the
// paper's halving trick for the ring contour, Sec. 3.2) and CG for Hermitian
// systems (the OBM baseline's Green-function columns and the Poisson
// equation of the SCF substrate).
//
// It also implements the paper's load-balancing stopping rule for the
// middle (quadrature-point) parallel layer: "the BiCG method is stopped at
// over half of quadrature points" (Sec. 3.3), justified by the uniform
// convergence across quadrature points shown in Fig. 5.
package linsolve

import (
	"math"
	"sync"

	"cbs/internal/chaos"
	"cbs/internal/zlinalg"
)

// Apply computes out = A*v for a fixed matrix-free operator.
type Apply func(v, out []complex128)

// Options controls an iterative solve.
type Options struct {
	Tol     float64 // relative residual target (paper: 1e-10)
	MaxIter int     // hard iteration cap (0: 10*N)
	History bool    // record the per-iteration relative residuals
	Group   *GroupStop
	// LooseTol guards the majority rule: a solve only honours the group
	// stop once its own residual is below LooseTol (default 100*Tol, the
	// paper's observation that stragglers sit near 1e-8 when the majority
	// reaches 1e-10). Without the guard, solves scheduled after the
	// majority converged would abort unsolved.
	LooseTol float64

	// Chaos optionally injects deterministic faults (the resilience tests
	// and the chaos-smoke CI job); nil in production. ChaosSite identifies
	// this solve — quadrature point, first probe column of the block, and
	// recovery-ladder attempt — so injection decisions are reproducible
	// under any worker scheduling.
	Chaos     *chaos.Injector
	ChaosSite chaos.Site
}

// looseTol returns the effective straggler tolerance.
func (o Options) looseTol() float64 {
	if o.LooseTol > 0 {
		return o.LooseTol
	}
	return 100 * o.Tol
}

// Result reports the outcome of a solve.
type Result struct {
	Iterations    int
	Converged     bool    // relative residual reached Tol
	StoppedEarly  bool    // halted by the group majority rule
	Breakdown     bool    // Krylov breakdown (vanishing inner product)
	Residual      float64 // final primal relative residual
	DualResidual  float64 // final dual relative residual (BiCGDual only)
	History       []float64
	MatVecApplied int // number of operator applications (primal + dual)
}

// defaultMaxIter bounds iterations when Options.MaxIter is zero.
func defaultMaxIter(n int) int { return 10*n + 100 }

// breakdownTol flags vanishing BiCG inner products.
const breakdownTol = 1e-290

// BiCGDual solves A x = b and, at the same time and almost the same cost,
// the dual system A^dagger xd = bd, using the two-sided Lanczos recurrences
// of BiCG (Saad, Iterative Methods, Sec. 7.3): the shadow direction already
// requires the A^dagger product, so updating xd alongside is free. With
// bd = b and A = P(z) this yields P(1/conj(z))^{-1} b, i.e. the
// inner-circle quadrature solution of the ring contour.
//
// x and xd are used as the initial guesses and overwritten with the
// solutions.
func BiCGDual(a, ad Apply, b, bd []complex128, x, xd []complex128, opts Options) Result {
	n := len(b)
	if len(bd) != n || len(x) != n || len(xd) != n {
		panic("linsolve: BiCGDual length mismatch")
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = defaultMaxIter(n)
	}
	res := Result{}

	r := make([]complex128, n)
	rd := make([]complex128, n)
	q := make([]complex128, n)
	qd := make([]complex128, n)

	// r = b - A x, rd = bd - A^dagger xd.
	a(x, q)
	ad(xd, qd)
	res.MatVecApplied += 2
	for i := 0; i < n; i++ {
		r[i] = b[i] - q[i]
		rd[i] = bd[i] - qd[i]
	}
	p := append([]complex128(nil), r...)
	pd := append([]complex128(nil), rd...)

	nb := zlinalg.Norm2(b)
	nbd := zlinalg.Norm2(bd)
	if nb == 0 {
		nb = 1
	}
	if nbd == 0 {
		nbd = 1
	}

	rho := zlinalg.Dot(rd, r)
	//cbs:chaossite bicg.breakdown
	if opts.Chaos.Breakdown(opts.ChaosSite) {
		// Injected Lanczos breakdown: the shadow inner product vanishes
		// before the first iteration (see internal/chaos).
		rho = 0
	}
	rel := zlinalg.Norm2(r) / nb
	relD := zlinalg.Norm2(rd) / nbd
	if opts.History {
		res.History = append(res.History, rel)
	}
	for iter := 0; iter < maxIter; iter++ {
		if rel <= opts.Tol && relD <= opts.Tol {
			res.Converged = true
			break
		}
		if opts.Group != nil && rel <= opts.looseTol() && relD <= opts.looseTol() && opts.Group.ShouldStop() {
			res.StoppedEarly = true
			break
		}
		if cabs2(rho) < breakdownTol {
			res.Breakdown = true
			break
		}
		a(p, q)
		ad(pd, qd)
		res.MatVecApplied += 2
		den := zlinalg.Dot(pd, q)
		if cabs2(den) < breakdownTol {
			res.Breakdown = true
			break
		}
		alpha := rho / den
		alphaC := conj(alpha)
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			xd[i] += alphaC * pd[i]
			r[i] -= alpha * q[i]
			rd[i] -= alphaC * qd[i]
		}
		rhoNew := zlinalg.Dot(rd, r)
		beta := rhoNew / rho
		betaC := conj(beta)
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
			pd[i] = rd[i] + betaC*pd[i]
		}
		rho = rhoNew
		rel = zlinalg.Norm2(r) / nb
		relD = zlinalg.Norm2(rd) / nbd
		res.Iterations++
		if opts.History {
			res.History = append(res.History, rel)
		}
	}
	if rel <= opts.Tol && relD <= opts.Tol {
		res.Converged = true
	}
	res.Residual = rel
	res.DualResidual = relD
	if res.Converged && opts.Group != nil {
		opts.Group.MarkConverged()
	}
	return res
}

// BiCG solves the single system A x = b (the dual solution is discarded;
// the shadow system is seeded with b).
func BiCG(a, ad Apply, b, x []complex128, opts Options) Result {
	xd := make([]complex128, len(x))
	bd := append([]complex128(nil), b...)
	r := BiCGDual(a, ad, b, bd, x, xd, opts)
	// Single-system convergence only requires the primal residual.
	if r.Residual <= opts.Tol {
		r.Converged = true
	}
	return r
}

// CG solves the Hermitian system A x = b by conjugate gradients. The OBM
// baseline uses it (as in the paper) for the Green-function columns, where
// E - H00 is Hermitian but indefinite: CG can still converge there, and
// breakdown is reported so callers can fall back to BiCG.
func CG(a Apply, b, x []complex128, opts Options) Result {
	if len(x) != len(b) {
		panic("linsolve: CG length mismatch")
	}
	n := len(b)
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = defaultMaxIter(n)
	}
	res := Result{}
	r := make([]complex128, n)
	q := make([]complex128, n)
	a(x, q)
	res.MatVecApplied++
	for i := 0; i < n; i++ {
		r[i] = b[i] - q[i]
	}
	p := append([]complex128(nil), r...)
	nb := zlinalg.Norm2(b)
	if nb == 0 {
		nb = 1
	}
	rho := real(zlinalg.Dot(r, r))
	rel := math.Sqrt(rho) / nb
	if opts.History {
		res.History = append(res.History, rel)
	}
	for iter := 0; iter < maxIter; iter++ {
		if rel <= opts.Tol {
			res.Converged = true
			break
		}
		a(p, q)
		res.MatVecApplied++
		den := real(zlinalg.Dot(p, q))
		if math.Abs(den) < breakdownTol {
			res.Breakdown = true
			break
		}
		alpha := complex(rho/den, 0)
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * q[i]
		}
		rhoNew := real(zlinalg.Dot(r, r))
		beta := complex(rhoNew/rho, 0)
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
		}
		rho = rhoNew
		rel = math.Sqrt(rhoNew) / nb
		res.Iterations++
		if opts.History {
			res.History = append(res.History, rel)
		}
	}
	if rel <= opts.Tol {
		res.Converged = true
	}
	res.Residual = rel
	return res
}

// conj is cmplx.Conj without the import (kept hot-path eligible).
//
//cbs:hotpath
func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }

// cabs2 is the squared magnitude: the hot loops compare against squared
// thresholds instead of paying a sqrt per element.
//
//cbs:hotpath
func cabs2(z complex128) float64 { return real(z)*real(z) + imag(z)*imag(z) }

// GroupStop implements the paper's majority stopping rule across the
// quadrature points of one contour: once more than half of the group's
// members have converged, the remaining solves stop at their next check.
type GroupStop struct {
	mu        sync.Mutex
	total     int
	converged int
	enabled   bool
}

// NewGroupStop creates a controller for a group of total solves; when
// enabled is false the controller never requests a stop (pure bookkeeping).
func NewGroupStop(total int, enabled bool) *GroupStop {
	return &GroupStop{total: total, enabled: enabled}
}

// MarkConverged records one converged member.
func (g *GroupStop) MarkConverged() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.converged++
	g.mu.Unlock()
}

// ShouldStop reports whether stragglers should halt: strictly more than
// half of the group has converged.
func (g *GroupStop) ShouldStop() bool {
	if g == nil || !g.enabled {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return 2*g.converged > g.total
}

// Converged returns the number of converged members so far.
func (g *GroupStop) Converged() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.converged
}
