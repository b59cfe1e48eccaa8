// Package comm is the message-passing layer modelled on the MPI subset the
// paper's code uses for its bottom parallel layer: point-to-point sends
// between ranks (halo exchange of z-slab boundaries) and allreduce (BiCG
// inner products, nonlocal projector coefficients). Ranks are goroutines
// of one process and channels carry the messages (the DESIGN §2
// substitution for MPI): a World is the only rank fabric, and internal/dist
// holds it by concrete type. Traffic statistics are recorded so experiments
// can report communication volume. Sockets live one level up, in the
// fleet's link between OS processes (internal/fleet).
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cbs/internal/chaos"
)

// World is a fixed-size group of ranks sharing the in-process channel
// fabric.
type World struct {
	size int
	// p2p[src*size+dst] carries messages from src to dst.
	p2p []chan []complex128

	// allreduce state: a two-phase (gather + broadcast) reducer that sums
	// in rank order so the result bits do not depend on arrival order.
	reduceIn  chan reduceMsg
	reduceOut []chan reduceResult

	// statistics
	messages atomic.Int64
	bytes    atomic.Int64

	// fault injection (nil in production): per-link send sequence counters
	// give every payload a deterministic chaos site identity.
	inj     *chaos.Injector
	sendSeq []atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
}

type reduceMsg struct {
	rank int
	data []complex128
}

// reduceResult is one rank's share of a finished reduction round.
type reduceResult struct {
	data []complex128
	err  error
}

// chanDepth buffers point-to-point links so symmetric exchanges do not
// deadlock.
const chanDepth = 4

// NewWorld creates a world of the given size and starts its reduction
// coordinator. Call Close when done.
func NewWorld(size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("comm: world size %d < 1", size)
	}
	w := &World{
		size:      size,
		p2p:       make([]chan []complex128, size*size),
		reduceIn:  make(chan reduceMsg, size),
		reduceOut: make([]chan reduceResult, size),
		sendSeq:   make([]atomic.Int64, size*size),
		stop:      make(chan struct{}),
	}
	for i := range w.p2p {
		w.p2p[i] = make(chan []complex128, chanDepth)
	}
	for i := range w.reduceOut {
		w.reduceOut[i] = make(chan reduceResult, 1)
	}
	go w.reducer()
	return w, nil
}

// SetChaos installs a deterministic fault injector on the fabric (nil
// disables injection). Call it before any rank starts communicating: the
// injector is read by Send without synchronization. A targeted payload is
// zeroed in transit — the in-process analogue of a corrupted or dropped
// halo message — while traffic statistics still count it, so resilience
// tests observe realistic volumes.
func (w *World) SetChaos(inj *chaos.Injector) { w.inj = inj }

// Close shuts down the world's reducer; ranks blocked in communication
// calls return ErrClosed.
func (w *World) Close() error {
	w.stopOnce.Do(func() { close(w.stop) })
	return nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Messages returns the total point-to-point message count so far.
func (w *World) Messages() int64 { return w.messages.Load() }

// Bytes returns the total point-to-point traffic in bytes so far.
func (w *World) Bytes() int64 { return w.bytes.Load() }

// reducer gathers one contribution per rank, then sums them in rank order
// — whatever order they arrived in, so the non-associative float sums are
// the same bits on every run — and broadcasts the result. A length
// mismatch across the contributions fails the whole round with
// ErrShapeMismatch on every rank: one rank's bug must never be able to
// panic the process (this was a panic once; see the regression tests).
func (w *World) reducer() {
	slots := make([][]complex128, w.size)
	for {
		for i := range slots {
			slots[i] = nil
		}
		for got := 0; got < w.size; {
			select {
			case m := <-w.reduceIn:
				if slots[m.rank] == nil {
					got++
				}
				slots[m.rank] = m.data
			case <-w.stop:
				return
			}
		}
		var rerr error
		for r := 1; r < w.size; r++ {
			if len(slots[r]) != len(slots[0]) {
				rerr = fmt.Errorf("%w: rank %d contributed %d elements, rank 0 contributed %d",
					ErrShapeMismatch, r, len(slots[r]), len(slots[0]))
				break
			}
		}
		var acc []complex128
		if rerr == nil {
			acc = append([]complex128(nil), slots[0]...)
			for r := 1; r < w.size; r++ {
				for i := range acc {
					acc[i] += slots[r][i]
				}
			}
		}
		for r := 0; r < w.size; r++ {
			res := reduceResult{err: rerr}
			if rerr == nil {
				res.data = append([]complex128(nil), acc...)
			}
			select {
			case w.reduceOut[r] <- res:
			case <-w.stop:
				return
			}
		}
	}
}

// Comm returns the endpoint of one rank.
func (w *World) Comm(rank int) (*Communicator, error) {
	if rank < 0 || rank >= w.size {
		return nil, fmt.Errorf("comm: rank %d out of range [0,%d)", rank, w.size)
	}
	return &Communicator{w: w, rank: rank}, nil
}

// Communicator is one rank's endpoint in a World: the MPI subset the
// paper's bottom layer uses. All methods are called from the rank's own
// goroutine (SPMD discipline: one in-flight call per rank).
type Communicator struct {
	w    *World
	rank int
}

// Rank returns this endpoint's rank.
func (c *Communicator) Rank() int { return c.rank }

// Size returns the world size.
func (c *Communicator) Size() int { return c.w.size }

// Send transmits data to dst (the slice is copied).
func (c *Communicator) Send(dst int, data []complex128) error {
	buf := make([]complex128, len(data))
	copy(buf, data)
	link := c.rank*c.w.size + dst
	if c.w.inj != nil {
		seq := c.w.sendSeq[link].Add(1) - 1
		//cbs:chaossite comm.halo
		if c.w.inj.CorruptHalo(c.rank, dst, seq) {
			for i := range buf {
				buf[i] = 0
			}
		}
	}
	c.w.messages.Add(1)
	c.w.bytes.Add(int64(len(data) * 16))
	select {
	case c.w.p2p[link] <- buf:
		return nil
	case <-c.w.stop:
		return ErrClosed
	}
}

// Recv blocks until a message from src arrives.
func (c *Communicator) Recv(src int) ([]complex128, error) {
	select {
	case buf := <-c.w.p2p[src*c.w.size+c.rank]:
		return buf, nil
	case <-c.w.stop:
		return nil, ErrClosed
	}
}

// SendRecv performs a deadlock-free paired exchange: send to dst, receive
// from src. (The buffered links make send-first safe for ring exchanges.)
func (c *Communicator) SendRecv(dst int, data []complex128, src int) ([]complex128, error) {
	if err := c.Send(dst, data); err != nil {
		return nil, err
	}
	return c.Recv(src)
}

// AllreduceSum sums the data element-wise across all ranks in rank order;
// every rank receives the result. All ranks must call it with equal
// lengths or every rank receives ErrShapeMismatch.
func (c *Communicator) AllreduceSum(data []complex128) ([]complex128, error) {
	in := make([]complex128, len(data))
	copy(in, data)
	select {
	case c.w.reduceIn <- reduceMsg{rank: c.rank, data: in}:
	case <-c.w.stop:
		return nil, ErrClosed
	}
	select {
	case res := <-c.w.reduceOut[c.rank]:
		return res.data, res.err
	case <-c.w.stop:
		return nil, ErrClosed
	}
}
