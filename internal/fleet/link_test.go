package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"cbs/internal/journal"
)

// dialPair returns the two ends of one loopback TCP conn.
func dialPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if server = <-accepted; server == nil {
		t.Fatal("accept failed")
	}
	return client, server
}

// linkPair returns two links over one loopback conn, closed at cleanup.
func linkPair(t *testing.T) (a, b *link) {
	c, s := dialPair(t)
	a, b = newLink(c, nil, 0), newLink(s, nil, 1)
	t.Cleanup(func() { a.close(); b.close() })
	return a, b
}

// sampleMsgs returns one message of each type the fleet protocol sends.
func sampleMsgs() []msg {
	opts := fleetOptions()
	es := fleetEnergies(4)
	return []msg{
		{Type: msgRegister, Name: "w1", Operator: "digest"},
		{Type: msgWelcome, Operator: "digest", Opts: &opts},
		{Type: msgAssign, Index: 3, Energy: es[3], Key: "k"},
		{Type: msgResult, Index: 3, Record: goodRecord(es, 3, opts)},
		{Type: msgDone},
	}
}

// TestLinkSendRecv: messages cross a link whole and in order in both
// directions, and heartbeats in between never surface.
func TestLinkSendRecv(t *testing.T) {
	a, b := linkPair(t)
	sent := sampleMsgs()
	for _, m := range sent {
		if err := a.send(m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range sent {
		got, err := b.recv()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Errorf("message %d arrived as %s, want %s", i, gb, wb)
		}
	}
	time.Sleep(3 * linkTiming.heartbeat) // both writers heartbeat meanwhile
	if err := b.send(msg{Type: msgDone}); err != nil {
		t.Fatal(err)
	}
	if got, err := a.recv(); err != nil || got.Type != msgDone {
		t.Fatalf("reverse direction: %+v, %v", got, err)
	}
}

// TestLinkFrameRoundTrip: each message is one journal.Frame line on the
// wire, and a stream of such lines, a heartbeat after each, reads back
// payload by payload and then ends with ErrLinkLost.
func TestLinkFrameRoundTrip(t *testing.T) {
	var stream []byte
	var payloads [][]byte
	for _, m := range sampleMsgs() {
		p, _ := json.Marshal(m)
		line := journal.Frame(p)
		if bytes.IndexByte(line, '\n') != len(line)-1 {
			t.Fatalf("frame %q is not one line", line)
		}
		payloads = append(payloads, p, []byte("{}"))
		stream = append(append(stream, line...), heartbeatLine...)
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	for i, p := range payloads {
		if got, err := readFrame(r, maxLine); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("frame %d read back as %q, %v; want %q", i, got, err, p)
		}
	}
	if got, err := readFrame(r, maxLine); !errors.Is(err, ErrLinkLost) {
		t.Fatalf("end of stream read as %q, %v; want ErrLinkLost", got, err)
	}
}

// TestLinkFlippedBitLost: one flipped bit anywhere in a frame's payload
// fails the read with ErrLinkLost, in the frame reader and on a live link.
func TestLinkFlippedBitLost(t *testing.T) {
	payload, _ := json.Marshal(msg{Type: msgAssign, Index: 2, Energy: -0.2, Key: "key"})
	line := journal.Frame(payload)
	for bit := 9 * 8; bit < (len(line)-1)*8; bit++ {
		bad := append([]byte(nil), line...)
		bad[bit/8] ^= 1 << (bit % 8)
		if p, err := readFrame(bufio.NewReader(bytes.NewReader(bad)), maxLine); !errors.Is(err, ErrLinkLost) {
			t.Fatalf("bit %d flipped: read %q, %v; want ErrLinkLost", bit, p, err)
		}
	}

	raw, s := dialPair(t)
	defer raw.Close()
	l := newLink(s, nil, 0)
	defer l.close()
	bad := append([]byte(nil), line...)
	bad[20] ^= 1
	if _, err := raw.Write(bad); err != nil {
		t.Fatal(err)
	}
	if m, err := l.recv(); !errors.Is(err, ErrLinkLost) {
		t.Fatalf("a corrupt frame arrived as %+v, %v; want ErrLinkLost", m, err)
	}
}

// TestLinkTruncatedFrameLost: a stream cut anywhere inside a frame reads as
// ErrLinkLost, never as a frame.
func TestLinkTruncatedFrameLost(t *testing.T) {
	line := journal.Frame([]byte(`{"type":"done"}`))
	for cut := 0; cut < len(line); cut++ {
		if p, err := readFrame(bufio.NewReader(bytes.NewReader(line[:cut])), maxLine); !errors.Is(err, ErrLinkLost) {
			t.Fatalf("cut at %d: read %q, %v; want ErrLinkLost", cut, p, err)
		}
	}
}

// endless yields 'x' forever, counting what was read.
type endless struct{ n int }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	e.n += len(p)
	return len(p), nil
}

// TestLinkOversizeLine: a line past the bound is refused with ErrLinkLost
// after reading at most the bound plus one reader buffer; a line exactly at
// the bound passes.
func TestLinkOversizeLine(t *testing.T) {
	const bound, bufSize = 1 << 16, 4096
	src := &endless{}
	if _, err := readFrame(bufio.NewReaderSize(src, bufSize), bound); !errors.Is(err, ErrLinkLost) {
		t.Fatalf("endless line: %v, want ErrLinkLost", err)
	}
	if src.n > bound+bufSize {
		t.Errorf("the reader consumed %d bytes for a %d-byte bound", src.n, bound)
	}
	payload := bytes.Repeat([]byte("y"), bound-10) // 8 hex + tab + payload + LF = bound
	if got, err := readFrame(bufio.NewReader(bytes.NewReader(journal.Frame(payload))), bound); err != nil || len(got) != len(payload) {
		t.Fatalf("line at the bound: %d bytes, %v", len(got), err)
	}
	over := journal.Frame(append(payload, 'y'))
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(over)), bound); !errors.Is(err, ErrLinkLost) {
		t.Fatalf("line one byte past the bound: %v, want ErrLinkLost", err)
	}
}

// TestLinkGarbageFirstFrame: a conn whose first frame is not a valid
// registration — bytes that are no frame, or a frame that is no register —
// is hung up at admission, and an honest worker still completes the sweep.
func TestLinkGarbageFirstFrame(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	es := fleetEnergies(3)
	opts := fleetOptions()
	addr, join := startCoordinator(ctx, es, opts, CoordinatorConfig{Addr: "127.0.0.1:0", OperatorDesc: testOperator})

	for _, garbage := range [][]byte{
		[]byte("not a frame not a frame\n"),
		journal.Frame([]byte(`{"type":"result","index":0}`)),
		journal.Frame([]byte(`not json`)),
	} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(garbage); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.Copy(io.Discard, c); err != nil {
			t.Errorf("%q: the coordinator kept the conn: %v", garbage, err)
		}
		c.Close()
	}

	if err := Work(ctx, fleetSolve(0), WorkerConfig{Addr: addr, Name: "honest", OperatorDesc: testOperator}); err != nil {
		t.Fatalf("honest worker: %v", err)
	}
	rep, err := join()
	if err != nil || rep.OK != len(es) {
		t.Fatalf("report OK=%d, %v; want all %d OK", rep.OK, err, len(es))
	}
}

// TestLinkIdleHeartbeatSurvives: a link that carries no message for three
// horizons survives while its peer heartbeats, and one whose peer sends
// nothing at all is lost after the horizon.
func TestLinkIdleHeartbeatSurvives(t *testing.T) {
	a, b := linkPair(t)
	got := make(chan error, 1)
	go func() {
		m, err := b.recv()
		if err == nil && m.Type != msgDone {
			err = errors.New("wrong message: " + m.Type)
		}
		got <- err
	}()
	time.Sleep(3 * linkTiming.horizon)
	if err := a.send(msg{Type: msgDone}); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("an idle link with a heartbeating peer died: %v", err)
	}

	raw, s := dialPair(t)
	defer raw.Close()
	l := newLink(s, nil, 0)
	defer l.close()
	start := time.Now()
	if _, err := l.recv(); !errors.Is(err, ErrLinkLost) {
		t.Fatalf("a silent peer: %v, want ErrLinkLost", err)
	}
	if d := time.Since(start); d < linkTiming.horizon {
		t.Errorf("a silent peer was lost after %v, before the horizon %v", d, linkTiming.horizon)
	}
}

// FuzzLinkRead feeds arbitrary bytes to the frame reader, the first code to
// touch anything a fleet peer sends: it must never panic, must fail only
// with ErrLinkLost, must refuse a line past the bound having read at most
// the bound plus one reader buffer, and must accept only lines
// journal.Frame writes (up to the case of the CRC's hex digits).
func FuzzLinkRead(f *testing.F) {
	const bound, bufSize = 1 << 12, 16
	opts := fleetOptions()
	es := fleetEnergies(3)
	for _, m := range []msg{
		{Type: msgRegister, Name: "w1", Operator: "digest"},
		{Type: msgWelcome, Operator: "digest", Opts: &opts},
		{Type: msgAssign, Index: 1, Energy: es[1], Key: "k"},
		{Type: msgResult, Index: 1, Record: goodRecord(es, 1, opts)},
		{Type: msgDone},
	} {
		b, _ := json.Marshal(m)
		f.Add(journal.Frame(b))
	}
	f.Add(heartbeatLine)
	two := append(journal.Frame([]byte(`{"type":"done"}`)), heartbeatLine...)
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Add([]byte("not a frame not a frame not a frame"))
	f.Add(bytes.Repeat([]byte("x"), bound+10))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := bufio.NewReaderSize(src, bufSize)
		payload, err := readFrame(r, bound)
		read := len(data) - src.Len()
		if err != nil {
			if !errors.Is(err, ErrLinkLost) {
				t.Fatalf("error %v does not wrap ErrLinkLost", err)
			}
			if read > bound+bufSize {
				t.Fatalf("read %d bytes past a %d-byte bound", read, bound)
			}
			return
		}
		line := data[:read-r.Buffered()]
		if len(line) > bound {
			t.Fatalf("accepted a %d-byte line past the %d-byte bound", len(line), bound)
		}
		again := journal.Frame(payload)
		if !bytes.EqualFold(again[:8], line[:8]) || !bytes.Equal(again[8:], line[8:]) {
			t.Fatalf("accepted line does not re-frame to the bytes consumed:\n in  %q\n out %q", line, again)
		}
	})
}
