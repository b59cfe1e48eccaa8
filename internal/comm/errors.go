package comm

import (
	"errors"

	"cbs/internal/wire"
)

// Typed sentinels of the communication layer, in two families (DESIGN §8).
// ErrShapeMismatch and ErrClosed belong to the rank World and are all an
// Ndm > 1 solve can surface: the sweep ladder treats the first as terminal
// (ranks that disagree about the problem shape will disagree again) and the
// second as a plain retry. ErrPeerLost, ErrPartition and ErrFrameCorrupt
// are how a reliable link (RConn) fails for good; they never enter a solve
// — the fleet coordinator answers them by re-dispatching the dead worker's
// energies. Both families also return ErrClosed after their own Close.
var (
	// ErrShapeMismatch means the ranks of one allreduce disagreed about
	// the vector length. One rank's bug must never be able to panic the
	// process, so the mismatch surfaces as an error on every rank of the
	// collective instead.
	ErrShapeMismatch = errors.New("comm: allreduce length mismatch across ranks")
	// ErrPeerLost means a link's peer is gone for good: it declared the
	// link failed, or the link lost frames the retransmit outbox no
	// longer holds. Only a higher layer (the fleet coordinator) can
	// recover, by re-dispatching the lost worker's energies.
	ErrPeerLost = errors.New("comm: peer lost")
	// ErrPartition means a link answered nothing past the retry budget:
	// the peer is dead, frozen, or on the far side of a network
	// partition, and this end cannot tell which.
	ErrPartition = errors.New("comm: link partitioned past retry budget")
	// ErrClosed means the world (or link) was shut down while a caller
	// was blocked in a communication call — for ranks the usual aftermath
	// of another rank failing first; the rank that observed the original
	// error speaks for the group.
	ErrClosed = errors.New("comm: world closed")
	// ErrFrameCorrupt re-exports the wire framing sentinel: a frame
	// failed its CRC and the link had to reset. Surfaces only when
	// corruption persists past the link's recovery budget.
	ErrFrameCorrupt = wire.ErrFrameCorrupt
)
