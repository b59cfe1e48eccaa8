// rconn.go is the reliable link under the fleet: wire-framed messages with
// per-link sequence numbers over a replaceable net.Conn. Each end runs
// a pump goroutine that always reads its side of the conn, so link control
// (NAK-driven retransmission, resequencing, reconnection) happens even
// while the application is busy elsewhere. The link heals everything short
// of real data loss by itself — dropped frames are retransmitted from a
// bounded outbox when the receiver NAKs the gap, duplicates are discarded
// by sequence, reordered frames wait in a pending buffer, corrupt frames
// reset the conn and resynchronize via the hello exchange, and dead conns
// are redialed with bounded exponential backoff and deterministic jitter.
// What it cannot heal it names: a peer asking for frames the outbox evicted
// is ErrPeerLost; a link that starves a waiting receiver past the retry
// budget is ErrPartition; corruption that persists across resets is
// ErrFrameCorrupt. The fleet answers all three the same way: the worker is
// declared dead and its energies are re-dispatched.
package comm

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cbs/internal/chaos"
	"cbs/internal/wire"
)

// TCPOptions tunes a reliable link. The zero value means "use defaults"
// (see WithDefaults).
type TCPOptions struct {
	// ConnectTimeout bounds one dial attempt and one handshake exchange.
	ConnectTimeout time.Duration
	// IOTimeout bounds one frame read or write. While a receiver is owed
	// data, each expiry NAKs the expected sequence (recovering lost data
	// or lost NAKs) and counts against RetryBudget unless the peer
	// answers: with the owed frames, or with an ack when it has not
	// produced them yet. IOTimeout*RetryBudget is therefore the horizon
	// for a link that carries nothing in either direction; a live peer
	// that is merely silent (computing, or itself waiting on another
	// link) never exhausts it. An idle link never counts expiries.
	IOTimeout time.Duration
	// RetryBudget is the number of consecutive unanswered recovery steps
	// (reconnect attempts, read timeouts, corrupt-frame resets) tolerated
	// while data is owed before the link surfaces a typed failure.
	RetryBudget int
	// BackoffBase is the first reconnect backoff; doubling from there.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff.
	BackoffMax time.Duration
	// MaxFrame bounds one frame payload (guards the length field).
	MaxFrame int
	// OutboxSize is the retransmit window in frames; a peer that falls
	// further behind than this is unrecoverable (ErrPeerLost).
	OutboxSize int
}

func (o TCPOptions) WithDefaults() TCPOptions {
	if o.ConnectTimeout <= 0 {
		o.ConnectTimeout = 2 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 2 * time.Second
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 6
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 2 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 100 * time.Millisecond
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = 16 << 20
	}
	if o.OutboxSize <= 0 {
		o.OutboxSize = 256
	}
	return o
}

const (
	// reorderWindow is how many out-of-order frames the pump buffers
	// before demanding the gap with a NAK.
	reorderWindow = 8
	// partitionWindow is how many consecutive connection attempts an
	// injected net.partition dooms before the link may heal.
	partitionWindow = 3
)

// errConnBroken marks a conn lost mid-operation; the pump heals it.
var errConnBroken = errors.New("comm: link conn lost mid-operation")

// RConn is one end of a reliable framed link. Send may be called from any
// goroutine and never blocks on a dead conn: the payload enters the
// retransmit outbox first, so the resynchronizing handshake delivers it
// after any reconnect. Recv blocks until the pump sequences the next
// payload or the link fails for good.
type RConn struct {
	opts TCPOptions
	dial func() (net.Conn, error) // nil on the acceptor end

	mu   sync.Mutex
	cond *sync.Cond // announces inbox pushes, conn installs, failure, close

	src  byte // link-local identity of this end (chaos + frame headers)
	dst  byte
	inj  *chaos.Injector
	conn net.Conn
	br   *bufio.Reader // the pump's reader over conn (see readFrame)
	gen  int           // bumped on every (re)install, so the pump spots replacements

	closed bool
	fail   error // sticky typed failure; every call returns it once set

	sendSeq uint64   // next data sequence to assign
	outBase uint64   // sequence of outbox[0]
	outbox  [][]byte // payloads awaiting possible retransmit

	recvSeq uint64            // next data sequence to deliver
	pending map[uint64][]byte // out-of-order frames waiting for the gap
	inbox   [][]byte          // sequenced payloads awaiting Recv
	waiters int               // receivers blocked on the inbox: "data is owed"

	writeOp int64 // per-link write counter: chaos identity for data writes
	dialOp  int64 // per-link connection-attempt counter: chaos identity

	partDown int         // connection attempts still doomed by an injected partition
	held     *wire.Frame // frame held back by an injected reorder

	rng uint64 // deterministic jitter state

	pumpDone chan struct{}
}

// WildcardID is the link identity an end dials with before it has been
// assigned one: a fleet worker's first hello carries it, and the
// coordinator's welcome replaces it via SetLocalID.
const WildcardID byte = 0xFF

// DialLink opens the dialing end of a reliable link to addr. This end owns
// reconnection: every conn loss redials addr with backoff, and the
// resynchronizing handshake replays whatever the peer has not seen.
func DialLink(src, dst byte, addr string, opts TCPOptions) *RConn {
	r := newRConn(src, dst, opts)
	r.dial = func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, r.opts.ConnectTimeout)
	}
	go r.pump()
	return r
}

// AcceptLink builds the passive end of a reliable link: conns (the first one
// and every replacement) arrive via Attach after the owner routes them by
// AcceptHello identity.
func AcceptLink(src, dst byte, opts TCPOptions) *RConn {
	r := newRConn(src, dst, opts)
	go r.pump()
	return r
}

func newRConn(src, dst byte, opts TCPOptions) *RConn {
	r := &RConn{
		opts:     opts.WithDefaults(),
		src:      src,
		dst:      dst,
		pending:  make(map[uint64][]byte),
		rng:      uint64(src)<<32 | uint64(dst)<<16 | 0x9e37,
		pumpDone: make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// SetChaos installs a deterministic fault injector (nil disables). Call
// before traffic starts.
func (r *RConn) SetChaos(inj *chaos.Injector) {
	r.mu.Lock()
	r.inj = inj
	r.mu.Unlock()
}

// SetLocalID renames this end of the link; reconnect hellos and chaos draws
// carry the new identity. The fleet uses it once the coordinator assigns a
// worker its slot.
func (r *RConn) SetLocalID(id byte) {
	r.mu.Lock()
	r.src = id
	r.mu.Unlock()
}

// Close tears the link down; blocked calls return ErrClosed and the pump
// winds down.
func (r *RConn) Close() error {
	r.mu.Lock()
	r.closed = true
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	return nil
}

// failLocked records the link's terminal condition and wakes everyone.
func (r *RConn) failLocked(err error) {
	if r.fail == nil {
		r.fail = err
	}
	r.cond.Broadcast()
}

// demandLocked reports whether the peer currently owes this end data: a
// receiver is blocked, or a sequence gap is outstanding. Only then do
// timeouts and failed reconnects count against the retry budget.
func (r *RConn) demandLocked() bool {
	return r.waiters > 0 || len(r.pending) > 0
}

// backoff returns the wait before reconnect attempt n: exponential from
// BackoffBase, capped at BackoffMax, jittered into [d/2, d] by a
// deterministic per-link xorshift so colliding peers desynchronize the same
// way on every run.
func (r *RConn) backoff(attempt int) time.Duration {
	d := r.opts.BackoffBase << uint(attempt)
	if d <= 0 || d > r.opts.BackoffMax {
		d = r.opts.BackoffMax
	}
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	return d/2 + time.Duration(r.rng%uint64(d/2+1))
}

// sleepLocked sleeps without holding the link mutex.
func (r *RConn) sleepLocked(d time.Duration) {
	r.mu.Unlock()
	time.Sleep(d)
	r.mu.Lock()
}

// pump is the link's control loop: it always reads this end of the conn,
// sequencing data into the inbox, serving the peer's NAKs from the outbox,
// and reconnecting (dialer end) or awaiting Attach (acceptor end) when the
// conn dies. It exits on Close or a sticky failure.
func (r *RConn) pump() {
	defer close(r.pumpDone)
	r.mu.Lock()
	defer r.mu.Unlock()
	starve := 0   // consecutive failed steps while data was owed
	corrupt := 0  // consecutive corrupt-frame resets
	attempts := 0 // consecutive reconnect attempts (backoff shape)
	// wake is when the current wait for the peer's next frame gives up (and,
	// if data is owed, Naks). Only a timeout or a data frame starts a new
	// wait: were every frame to restart it, a peer that is itself waiting
	// on us would push our Nak out with each of its own, one IOTimeout
	// apart, and a frame lost in our direction would never be asked for.
	var wake time.Time
	for {
		if r.closed || r.fail != nil {
			return
		}
		if r.conn == nil {
			wake = time.Time{}
			if r.dial == nil && !r.demandLocked() {
				// Passive and idle: wait for Attach, Close, or a receiver.
				r.cond.Wait()
				continue
			}
			wait := r.backoff(attempts)
			if r.dial != nil && !r.demandLocked() && attempts >= r.opts.RetryBudget {
				// Idle with the budget spent: keep redialing slowly so a
				// peer that comes back late is still found.
				wait = r.opts.BackoffMax
			}
			r.sleepLocked(wait)
			attempts++
			if r.closed || r.fail != nil || r.conn != nil {
				continue
			}
			if r.dial != nil {
				attemptID := r.dialOp
				r.dialOp++
				doomed := r.partDown > 0
				if doomed {
					r.partDown--
				}
				if !doomed && r.inj != nil {
					//cbs:chaossite net.conn
					doomed = r.inj.NetConn(int(r.src), int(r.dst), attemptID)
				}
				if !doomed {
					dial := r.dial
					r.mu.Unlock()
					c, err := dial()
					r.mu.Lock()
					if err == nil {
						err = r.handshakeLocked(c)
						if err != nil {
							c.Close()
						}
					}
					if err == nil {
						attempts = 0
						continue
					}
					if errors.Is(err, ErrPeerLost) {
						r.failLocked(err)
						return
					}
				}
			}
			if r.demandLocked() {
				starve++
				if starve >= r.opts.RetryBudget {
					r.failLocked(fmt.Errorf("%w: link %d->%d: %d reconnect attempts failed",
						ErrPartition, r.src, r.dst, starve))
					return
				}
			}
			continue
		}
		if wake.IsZero() {
			wake = time.Now().Add(r.opts.IOTimeout)
		}
		c, br, gen := r.conn, r.br, r.gen
		r.mu.Unlock()
		f, err := readFrame(c, br, wake, r.opts)
		r.mu.Lock()
		if r.closed {
			return
		}
		if r.gen != gen {
			// The conn was replaced under us (Attach/handshake): whatever
			// happened on the old one is moot.
			continue
		}
		if err != nil {
			switch {
			case errors.Is(err, wire.ErrFrameCorrupt):
				// The stream cannot be trusted past a corrupt frame:
				// reset the conn and resynchronize from sequence numbers.
				corrupt++
				if corrupt > r.opts.RetryBudget {
					r.failLocked(fmt.Errorf("comm: link %d<-%d: corruption persisted across %d resets: %w",
						r.src, r.dst, corrupt, err))
					return
				}
				c.Close()
				r.conn = nil
			case isTimeout(err):
				wake = time.Time{}
				if r.demandLocked() {
					starve++
					if starve >= r.opts.RetryBudget {
						r.failLocked(fmt.Errorf("%w: link %d<-%d: no frame after %d read timeouts",
							ErrPartition, r.src, r.dst, starve))
						return
					}
					// Our NAK or their data may have been lost: ask again.
					r.nakLocked()
				}
			default:
				// Broken conn: drop it and let the reconnect path run.
				if r.demandLocked() {
					starve++
					if starve >= r.opts.RetryBudget {
						r.failLocked(fmt.Errorf("%w: link %d<-%d: %w", ErrPartition, r.src, r.dst, err))
						return
					}
				}
				c.Close()
				r.conn = nil
			}
			continue
		}
		starve, corrupt, attempts = 0, 0, 0 // any intact frame is progress
		switch f.Kind {
		case wire.KindData:
			wake = time.Time{}
			switch {
			case f.Seq < r.recvSeq:
				// Duplicate of a delivered frame: drop.
			case f.Seq == r.recvSeq:
				r.recvSeq++
				r.inbox = append(r.inbox, f.Payload)
				// The gap may have just closed: drain the pending buffer.
				for {
					p, ok := r.pending[r.recvSeq]
					if !ok {
						break
					}
					delete(r.pending, r.recvSeq)
					r.recvSeq++
					r.inbox = append(r.inbox, p)
				}
				r.cond.Broadcast()
			default:
				// Out of order: park it; past the window, demand the gap.
				r.pending[f.Seq] = f.Payload
				if len(r.pending) > reorderWindow {
					r.nakLocked()
				}
			}
		case wire.KindNak:
			if f.Seq >= r.sendSeq {
				// Nothing owed yet: say so, or the asker would count our
				// silence as a dead link.
				r.controlLocked(wire.KindAck, r.sendSeq)
			} else if err := r.retransmitLocked(f.Seq); err != nil {
				if errors.Is(err, ErrPeerLost) {
					r.failLocked(err)
					return
				}
				if r.conn != nil {
					r.conn.Close()
					r.conn = nil
				}
			}
		case wire.KindLost:
			r.failLocked(fmt.Errorf("%w: peer %d reports frames lost beyond recovery", ErrPeerLost, r.dst))
			return
		case wire.KindHello, wire.KindAck:
			// A stale handshake remnant after a reset, or the peer's
			// "nothing to send yet": the frame itself was the news.
		}
	}
}

// readFrame waits until wake for a frame to start and then reads it whole
// under a fresh IOTimeout. Only the wait may report a timeout, and it
// consumes nothing. A deadline firing after part of a frame was consumed
// would leave the stream mid-frame and the next read would parse a CRC
// trailer as a length; equal IOTimeouts phase-lock the two pumps, so a Nak
// sent on one end's expiry lands right on the other's. A stall inside a
// frame is therefore a broken conn, healed by the reconnect handshake.
func readFrame(c net.Conn, br *bufio.Reader, wake time.Time, opts TCPOptions) (wire.Frame, error) {
	c.SetReadDeadline(wake)
	if _, err := br.Peek(1); err != nil {
		return wire.Frame{}, err
	}
	c.SetReadDeadline(time.Now().Add(opts.IOTimeout))
	f, err := wire.Read(br, opts.MaxFrame)
	if isTimeout(err) {
		err = fmt.Errorf("%w: frame stalled past the read deadline", errConnBroken)
	}
	return f, err
}

// handshakeLocked resynchronizes a fresh dialer-side conn: exchange hellos
// carrying each end's next expected sequence, then install and retransmit.
func (r *RConn) handshakeLocked(c net.Conn) error {
	c.SetDeadline(time.Now().Add(r.opts.ConnectTimeout))
	hello := wire.Frame{Kind: wire.KindHello, Src: r.src, Dst: r.dst, Seq: r.recvSeq}
	if err := wire.Write(c, hello); err != nil {
		return err
	}
	f, err := wire.Read(c, r.opts.MaxFrame)
	if err != nil {
		return err
	}
	c.SetDeadline(time.Time{})
	switch f.Kind {
	case wire.KindHello:
		return r.installLocked(c, f.Seq)
	case wire.KindLost:
		return fmt.Errorf("%w: peer %d reports frames lost beyond recovery", ErrPeerLost, r.dst)
	default:
		return fmt.Errorf("comm: link %d->%d: unexpected kind-%d frame during handshake", r.src, r.dst, f.Kind)
	}
}

// AcceptHello consumes the opening hello of a freshly accepted conn and
// returns the peer's link identity and next expected sequence, so the owner
// can route the conn to the right link's Attach.
func AcceptHello(c net.Conn, timeout time.Duration, maxFrame int) (peer byte, expected uint64, err error) {
	c.SetReadDeadline(time.Now().Add(timeout))
	f, err := wire.Read(c, maxFrame)
	if err != nil {
		return 0, 0, err
	}
	c.SetReadDeadline(time.Time{})
	if f.Kind != wire.KindHello {
		return 0, 0, fmt.Errorf("comm: expected hello frame, got kind %d", f.Kind)
	}
	return f.Src, f.Seq, nil
}

// Attach hands a freshly accepted conn — its opening hello already consumed
// by AcceptHello — to the acceptor end: reply with our hello, install, and
// retransmit everything the peer has not seen. On error the conn is closed.
func (r *RConn) Attach(c net.Conn, peerExpected uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		c.Close()
		return ErrClosed
	}
	if r.fail != nil {
		c.SetWriteDeadline(time.Now().Add(r.opts.ConnectTimeout))
		wire.Write(c, wire.Frame{Kind: wire.KindLost, Src: r.src, Dst: r.dst}) // best effort
		c.Close()
		return r.fail
	}
	c.SetWriteDeadline(time.Now().Add(r.opts.ConnectTimeout))
	hello := wire.Frame{Kind: wire.KindHello, Src: r.src, Dst: r.dst, Seq: r.recvSeq}
	if err := wire.Write(c, hello); err != nil {
		c.Close()
		return err
	}
	c.SetDeadline(time.Time{})
	if err := r.installLocked(c, peerExpected); err != nil {
		c.Close()
		if errors.Is(err, ErrPeerLost) {
			r.failLocked(err)
		}
		return err
	}
	return nil
}

// installLocked makes c the live conn and retransmits the outbox from the
// peer's expected sequence. A peer behind the outbox window is lost.
func (r *RConn) installLocked(c net.Conn, peerExpected uint64) error {
	if peerExpected < r.outBase {
		c.SetWriteDeadline(time.Now().Add(r.opts.ConnectTimeout))
		wire.Write(c, wire.Frame{Kind: wire.KindLost, Src: r.src, Dst: r.dst, Seq: peerExpected}) // best effort
		return fmt.Errorf("%w: peer %d expects seq %d but the outbox starts at %d",
			ErrPeerLost, r.dst, peerExpected, r.outBase)
	}
	if r.conn != nil {
		r.conn.Close()
	}
	r.conn = c
	r.br = bufio.NewReader(c)
	r.gen++
	r.held = nil // any holdback belonged to the dead conn
	r.cond.Broadcast()
	for seq := peerExpected; seq < r.sendSeq; seq++ {
		if err := r.writeDataLocked(seq, r.outbox[seq-r.outBase]); err != nil {
			if r.conn != nil {
				r.conn.Close()
				r.conn = nil
			}
			return err
		}
	}
	return nil
}

// Send appends one payload to the link (the slice is copied). The payload
// lands in the retransmit outbox before the first write attempt, so delivery
// survives any reconnect; a Send onto a dead conn returns nil and the
// resynchronizing handshake carries the frame later (buffered-send
// semantics).
func (r *RConn) Send(body []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if r.fail != nil {
		return r.fail
	}
	payload := append([]byte(nil), body...)
	seq := r.sendSeq
	r.sendSeq++
	r.outbox = append(r.outbox, payload)
	for len(r.outbox) > r.opts.OutboxSize {
		r.outbox[0] = nil
		r.outbox = r.outbox[1:]
		r.outBase++
	}
	if r.conn == nil {
		return nil // the pump reconnects; install retransmits this frame
	}
	if err := r.writeDataLocked(seq, payload); err != nil {
		if errors.Is(err, ErrClosed) {
			return err
		}
		// Conn broke mid-write: hand it to the pump; the outbox has the
		// frame, so nothing is lost.
		if r.conn != nil {
			r.conn.Close()
			r.conn = nil
		}
	}
	return nil
}

// writeDataLocked frames one data payload onto the live conn, applying the
// injected network faults. Chaos draws key on the per-link write counter,
// not the data sequence: a retransmission must draw fresh, or a
// deterministic injector would doom the same frame forever.
func (r *RConn) writeDataLocked(seq uint64, payload []byte) error {
	op := r.writeOp
	r.writeOp++
	f := wire.Frame{Kind: wire.KindData, Src: r.src, Dst: r.dst, Seq: seq, Payload: payload}
	if r.inj != nil {
		s, d := int(r.src), int(r.dst)
		//cbs:chaossite net.partition
		if r.inj.NetPartition(s, d, op) {
			r.partDown = partitionWindow
			if r.conn != nil {
				r.conn.Close()
				r.conn = nil
			}
			return errConnBroken
		}
		//cbs:chaossite net.delay
		if r.inj.NetDelay(s, d, op) {
			r.sleepLocked(r.opts.BackoffBase)
			if r.closed {
				return ErrClosed
			}
			if r.conn == nil {
				return errConnBroken
			}
		}
		//cbs:chaossite net.drop
		if r.inj.NetDrop(s, d, op) {
			return nil // vanishes on the wire; the outbox still holds it
		}
		//cbs:chaossite net.dup
		if r.inj.NetDup(s, d, op) {
			if err := r.rawWriteLocked(f); err != nil {
				return err
			}
		}
		//cbs:chaossite net.reorder
		if r.inj.NetReorder(s, d, op) {
			held := r.held
			r.held = &f
			if held != nil {
				return r.rawWriteLocked(*held)
			}
			return nil // emitted after the next frame: reordered
		}
	}
	if err := r.rawWriteLocked(f); err != nil {
		return err
	}
	if r.held != nil {
		held := *r.held
		r.held = nil
		return r.rawWriteLocked(held)
	}
	return nil
}

func (r *RConn) rawWriteLocked(f wire.Frame) error {
	r.conn.SetWriteDeadline(time.Now().Add(r.opts.IOTimeout))
	return wire.Write(r.conn, f)
}

// nakLocked asks the peer (best effort) to retransmit from our expected
// sequence.
func (r *RConn) nakLocked() {
	r.controlLocked(wire.KindNak, r.recvSeq)
}

// controlLocked writes one payload-free link-control frame, best effort: a
// lost Nak or Ack is re-asked for on the next read timeout.
func (r *RConn) controlLocked(kind byte, seq uint64) {
	if r.conn == nil {
		return
	}
	r.conn.SetWriteDeadline(time.Now().Add(r.opts.IOTimeout))
	wire.Write(r.conn, wire.Frame{Kind: kind, Src: r.src, Dst: r.dst, Seq: seq})
}

// retransmitLocked replays the outbox from seq. A request behind the window
// means the peer can never be made whole: KindLost, then ErrPeerLost.
func (r *RConn) retransmitLocked(from uint64) error {
	if from < r.outBase {
		if r.conn != nil {
			r.conn.SetWriteDeadline(time.Now().Add(r.opts.IOTimeout))
			wire.Write(r.conn, wire.Frame{Kind: wire.KindLost, Src: r.src, Dst: r.dst, Seq: from}) // best effort
		}
		return fmt.Errorf("%w: peer %d asked for seq %d but the outbox starts at %d",
			ErrPeerLost, r.dst, from, r.outBase)
	}
	for seq := from; seq < r.sendSeq; seq++ {
		if r.conn == nil {
			return errConnBroken
		}
		if err := r.writeDataLocked(seq, r.outbox[seq-r.outBase]); err != nil {
			return err
		}
	}
	return nil
}

// Recv returns the next in-order payload. It blocks until the pump sequences
// one; failure surfaces typed — ErrPartition after the retry budget starves,
// ErrFrameCorrupt after persistent corruption, ErrPeerLost when recovery is
// impossible, ErrClosed after Close. Payloads sequenced before a failure are
// still delivered first.
func (r *RConn) Recv() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if len(r.inbox) > 0 {
			p := r.inbox[0]
			r.inbox[0] = nil
			r.inbox = r.inbox[1:]
			return p, nil
		}
		if r.closed {
			return nil, ErrClosed
		}
		if r.fail != nil {
			return nil, r.fail
		}
		r.waiters++
		r.cond.Broadcast() // the pump reassesses demand
		r.cond.Wait()
		r.waiters--
	}
}

// isTimeout reports whether err is a deadline expiry rather than a dead conn.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
