package comm

import "errors"

// Typed sentinels of the rank World (DESIGN §8). They are all an Ndm > 1
// solve can surface: the sweep ladder treats ErrShapeMismatch as terminal
// (ranks that disagree about the problem shape will disagree again) and
// ErrClosed as a plain retry.
var (
	// ErrShapeMismatch means the ranks of one allreduce disagreed about
	// the vector length. One rank's bug must never be able to panic the
	// process, so the mismatch surfaces as an error on every rank of the
	// collective instead.
	ErrShapeMismatch = errors.New("comm: allreduce length mismatch across ranks")
	// ErrClosed means the world was shut down while a caller was blocked
	// in a communication call — for ranks the usual aftermath of another
	// rank failing first; the rank that observed the original error speaks
	// for the group.
	ErrClosed = errors.New("comm: world closed")
)
