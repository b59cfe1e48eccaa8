package fleet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cbs/internal/chaos"
	"cbs/internal/journal"
)

// ErrLinkLost is the one outcome of every fleet link failure: EOF, a reset,
// a frame that fails its CRC, an oversize line, a missed horizon. The
// coordinator answers it by dropping the worker and re-dispatching its
// energies; a welcomed worker answers it by redialing and registering again.
var ErrLinkLost = errors.New("fleet: link lost")

const (
	// heartbeatPeriod is how long a link's writer stays idle before it
	// sends an empty message, so a peer busy in a long solve still proves
	// itself alive.
	heartbeatPeriod = time.Second
	// linkHorizon is the read deadline of a link: a peer from which no
	// intact frame, heartbeat included, arrives for this long is lost.
	linkHorizon = 6 * time.Second
	// maxLine bounds one framed line; a longer one is refused before the
	// reader buffers past the bound.
	maxLine = 16 << 20
)

// linkTiming is the heartbeat period and horizon of every new link. Only
// tests change it, to shorten the failure horizon.
var linkTiming = struct{ heartbeat, horizon time.Duration }{heartbeatPeriod, linkHorizon}

// heartbeatLine is the framed empty message a writer sends when idle. It
// decodes to a msg without a type, which recv skips.
var heartbeatLine = journal.Frame([]byte("{}"))

// link is one fleet session over one TCP conn. Each message is one
// journal.Frame line (CRC-32C, hex, tab, JSON, newline: json.Marshal never
// emits a raw newline). send only queues; a single writer goroutine owns
// every conn write, so callers may send under their own locks, and it
// heartbeats whenever the link has been idle for the heartbeat period.
// recv reads under the horizon, which any intact frame resets.
type link struct {
	conn      net.Conn
	in        *bufio.Reader
	inj       *chaos.Injector
	id        int // chaos identity of this link
	heartbeat time.Duration
	horizon   time.Duration

	mu     sync.Mutex
	queue  [][]byte // framed lines awaiting the writer
	closed bool

	wake chan struct{} // the queue grew or the link closed (capacity 1)
	done chan struct{} // closed when the writer exits
}

// newLink takes ownership of c and starts its writer.
func newLink(c net.Conn, inj *chaos.Injector, id int) *link {
	l := &link{
		conn:      c,
		in:        bufio.NewReaderSize(c, 64<<10),
		inj:       inj,
		id:        id,
		heartbeat: linkTiming.heartbeat,
		horizon:   linkTiming.horizon,
		wake:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	go l.writeLoop()
	return l
}

// send queues one message for the writer. It never blocks on the conn; a
// closed link refuses with ErrLinkLost.
func (l *link) send(m msg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrLinkLost
	}
	l.queue = append(l.queue, journal.Frame(b))
	l.signal()
	return nil
}

func (l *link) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// shut marks the link closed and closes the conn, which fails the reader
// and any write in flight.
func (l *link) shut() {
	l.mu.Lock()
	l.closed = true
	l.signal()
	l.mu.Unlock()
	l.conn.Close()
}

// close tears the link down and waits for its writer. Idempotent.
func (l *link) close() {
	l.shut()
	<-l.done
}

// writeLoop is the link's only writer: it drains the queue, and writes a
// heartbeat when nothing was written for the heartbeat period. A write
// error, or a write missing the horizon against a peer that stopped
// reading, kills the link.
func (l *link) writeLoop() {
	defer close(l.done)
	idle := time.NewTimer(l.heartbeat)
	defer idle.Stop()
	var op int64
	for {
		var lines [][]byte
		select {
		case <-l.wake:
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				return
			}
			lines, l.queue = l.queue, nil
			l.mu.Unlock()
		case <-idle.C:
			lines = [][]byte{heartbeatLine}
		}
		for _, line := range lines {
			//cbs:chaossite net.reset
			if l.inj.NetReset(l.id, op) {
				l.shut()
				return
			}
			op++
			l.conn.SetWriteDeadline(time.Now().Add(l.horizon))
			if _, err := l.conn.Write(line); err != nil {
				l.shut()
				return
			}
		}
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(l.heartbeat)
	}
}

// recv returns the next message from the peer, skipping heartbeats. Every
// failure wraps ErrLinkLost.
func (l *link) recv() (msg, error) {
	for {
		l.conn.SetReadDeadline(time.Now().Add(l.horizon))
		payload, err := readFrame(l.in, maxLine)
		if err != nil {
			return msg{}, err
		}
		m, err := decodeMsg(payload)
		if err != nil {
			return msg{}, fmt.Errorf("%w: %w", ErrLinkLost, err)
		}
		if m.Type != "" {
			return m, nil
		}
	}
}

// readFrame reads one framed line from r and returns its payload. The line
// length is checked against max before each chunk is kept, so an endless
// line costs at most max bytes plus one reader buffer. A short read, a line
// over max and a CRC failure are all ErrLinkLost.
func readFrame(r *bufio.Reader, max int) ([]byte, error) {
	var line []byte
	for {
		chunk, err := r.ReadSlice('\n')
		if len(line)+len(chunk) > max {
			return nil, fmt.Errorf("%w: line longer than %d bytes", ErrLinkLost, max)
		}
		line = append(line, chunk...)
		if err == nil {
			break
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return nil, fmt.Errorf("%w: %w", ErrLinkLost, err)
		}
	}
	payload, ok := journal.Unframe(line[:len(line)-1])
	if !ok {
		return nil, fmt.Errorf("%w: frame failed its CRC check", ErrLinkLost)
	}
	return payload, nil
}
