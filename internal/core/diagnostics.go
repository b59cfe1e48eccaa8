package core

// DroppedPair identifies one (quadrature point, probe column) contribution
// discarded by the recovery ladder. Because the dual trick solves the outer
// node and its paired inner node in one BiCG run, the pair is always
// dropped symmetrically: both the primal (outer) and dual (inner)
// contributions of the column are excluded and the column's surviving
// weights renormalized (contour.RenormFactor).
type DroppedPair struct {
	Point int `json:"point"` // outer-circle quadrature index
	Col   int `json:"col"`   // probe column
}

// PointDiag is the per-quadrature-point slice of Diagnostics.
type PointDiag struct {
	ZRe          float64 `json:"z_re"`
	ZIm          float64 `json:"z_im"`
	Iterations   int     `json:"iterations"`
	Converged    int     `json:"converged"`
	StoppedEarly int     `json:"stopped_early"`
	Breakdowns   int     `json:"breakdowns,omitempty"`
	Restarts     int     `json:"restarts,omitempty"`
	Fallbacks    int     `json:"fallbacks,omitempty"`
	Dropped      int     `json:"dropped,omitempty"`
	MaxResidual  float64 `json:"max_residual"`
}

// Diagnostics summarizes the health of one contour solve: how hard the
// recovery ladder had to work, what was lost to graceful degradation, and
// the residual budget the extracted eigenpairs inherit. It is JSON-ready
// for the cmd/cbs --diagnostics export.
type Diagnostics struct {
	Nint int `json:"nint"` // quadrature points per circle
	Nrh  int `json:"nrh"`  // probe columns

	// Ladder totals across all (point, column) solves.
	Breakdowns int `json:"breakdowns"` // first-pass Krylov breakdowns
	Restarts   int `json:"restarts"`   // perturbed BiCG restarts attempted
	Fallbacks  int `json:"fallbacks"`  // escalations to restarted GMRES

	// Graceful degradation: contributions dropped after the full ladder
	// failed, and the per-column quadrature-weight renormalization factors
	// (1 for clean columns). Degraded is true when anything was dropped.
	DroppedPairs  []DroppedPair `json:"dropped_pairs,omitempty"`
	RenormFactors []float64     `json:"renorm_factors,omitempty"`
	Degraded      bool          `json:"degraded"`

	// ResidualBudget is the worst final relative residual among the linear
	// solves whose contributions entered the moments: an upper bound on the
	// quadrature-data accuracy backing the extracted eigenpairs.
	ResidualBudget float64 `json:"residual_budget"`

	// SVDSweeps is the number of Jacobi sweeps the Hankel SVD ran.
	SVDSweeps int `json:"svd_sweeps,omitempty"`

	Points []PointDiag `json:"points"`
}

// finalizeDiagnostics folds the per-point statistics into res.Diagnostics
// after the contour solve (DroppedPairs and RenormFactors are already in
// place, recorded by solveAll).
func (res *Result) finalizeDiagnostics(opts Options) {
	d := &res.Diagnostics
	d.Nint = opts.Nint
	d.Nrh = opts.Nrh
	d.Degraded = len(d.DroppedPairs) > 0
	d.Points = make([]PointDiag, len(res.Points))
	for j := range res.Points {
		ps := &res.Points[j]
		d.Points[j] = PointDiag{
			ZRe:          real(ps.Z),
			ZIm:          imag(ps.Z),
			Iterations:   ps.Iterations,
			Converged:    ps.Converged,
			StoppedEarly: ps.StoppedEarly,
			Breakdowns:   ps.Breakdowns,
			Restarts:     ps.Restarts,
			Fallbacks:    ps.Fallbacks,
			Dropped:      ps.Dropped,
			MaxResidual:  ps.MaxResidual,
		}
		d.Breakdowns += ps.Breakdowns
		d.Restarts += ps.Restarts
		d.Fallbacks += ps.Fallbacks
		if ps.MaxResidual > d.ResidualBudget {
			d.ResidualBudget = ps.MaxResidual
		}
	}
}
