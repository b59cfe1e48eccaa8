package core

import "errors"

// Typed sentinels of the solver layer, matchable with errors.Is. Errors
// from the lower layers (contour.ErrTooManyDropped, ssm.ErrRankDeficient,
// comm.ErrShapeMismatch, chaos.ErrInjected, context.Canceled) are wrapped,
// not translated. A column's Krylov breakdown or stagnation is not among
// them: this package's ladder owns it and only its overflow leaves Solve.
var (
	// ErrBadOptions is an invalid solver parameterization (non-positive
	// Nint/Nmm/Nrh, bad contour radii, an Ndm the operator cannot take).
	ErrBadOptions = errors.New("core: invalid solver options")
	// ErrSubspaceTooLarge means Nrh*Nmm exceeds the problem dimension: the
	// moment subspace cannot be larger than the space it probes.
	ErrSubspaceTooLarge = errors.New("core: moment subspace exceeds problem dimension")
)
