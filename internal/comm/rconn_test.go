package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cbs/internal/chaos"
)

// testTCPOptions keeps recovery cycles fast enough for the test suite.
func testTCPOptions() TCPOptions {
	return TCPOptions{
		ConnectTimeout: 500 * time.Millisecond,
		IOTimeout:      100 * time.Millisecond,
		RetryBudget:    10,
		BackoffBase:    time.Millisecond,
		BackoffMax:     10 * time.Millisecond,
	}
}

// linkPair is a two-ended reliable link built the way the fleet builds one:
// a loopback listener whose accept loop reads each conn's hello and routes
// it to the passive end's Attach, and a dialing end that owns reconnection.
type linkPair struct {
	ln   net.Listener
	acc  *RConn // passive end, identity 0
	dial *RConn // dialing end, identity 1
	wg   sync.WaitGroup
}

func newLinkPair(t *testing.T, accOpts, dialOpts TCPOptions) *linkPair {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &linkPair{ln: ln, acc: AcceptLink(0, 1, accOpts)}
	o := accOpts.WithDefaults()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				peer, expected, err := AcceptHello(c, o.ConnectTimeout, o.MaxFrame)
				if err != nil || peer != 1 {
					c.Close() // corrupt hello or a stranger: let them redial
					return
				}
				p.acc.Attach(c, expected) // closes c itself on error
			}()
		}
	}()
	p.dial = DialLink(1, 0, ln.Addr().String(), dialOpts)
	return p
}

// setChaos arms both ends, as a fleet run with Chaos set on the coordinator
// and on the worker does.
func (p *linkPair) setChaos(inj *chaos.Injector) {
	p.acc.SetChaos(inj)
	p.dial.SetChaos(inj)
}

// Close tears the pair down and waits for everything it spawned.
func (p *linkPair) Close() {
	p.ln.Close()
	p.acc.Close()
	p.dial.Close()
	p.wg.Wait()
	<-p.acc.pumpDone
	<-p.dial.pumpDone
}

// seqPayload is the test traffic: the sequence number, then a tail whose
// length and bytes depend on it, so a payload delivered under the wrong
// sequence or with a damaged body cannot pass for the right one.
func seqPayload(seq uint64) []byte {
	b := make([]byte, 8+int(seq%5)*3)
	binary.LittleEndian.PutUint64(b, seq)
	for i := 8; i < len(b); i++ {
		b[i] = byte(seq) + byte(i)
	}
	return b
}

// recvSeq receives one payload and checks it is exactly seqPayload(seq).
func recvSeq(rc *RConn, seq uint64) error {
	got, err := rc.Recv()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, seqPayload(seq)) {
		return fmt.Errorf("got payload %x, want sequence %d", got, seq)
	}
	return nil
}

// pingPong runs rounds of sequence-numbered ping-pong over the pair: per
// round the dialing end sends pings 2i and 2i+1 back to back (so reordering
// and duplication have a neighbour to act on), the passive end checks both
// in order and answers pong i, and the dialing end checks that. It returns
// what each end observed, for comparison against a clean run.
func pingPong(t *testing.T, p *linkPair, rounds int) (pings, pongs []uint64) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for _, seq := range []uint64{uint64(2 * i), uint64(2*i + 1)} {
				if err := recvSeq(p.acc, seq); err != nil {
					t.Errorf("passive end, ping %d: %v", seq, err)
					p.dial.Close() // unblock the other end
					return
				}
				pings = append(pings, seq)
			}
			if err := p.acc.Send(seqPayload(uint64(i))); err != nil {
				t.Errorf("passive end, pong %d: %v", i, err)
				p.dial.Close()
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		err := p.dial.Send(seqPayload(uint64(2 * i)))
		if err == nil {
			err = p.dial.Send(seqPayload(uint64(2*i + 1)))
		}
		if err == nil {
			err = recvSeq(p.dial, uint64(i))
		}
		if err != nil {
			t.Errorf("dialing end, round %d: %v", i, err)
			p.acc.Close()
			break
		}
		pongs = append(pongs, uint64(i))
	}
	wg.Wait()
	return pings, pongs
}

// TestTCPSendRecv: payloads arrive whole, in order and as they were at Send
// time (the link copies: its outbox may retransmit long after the caller
// reused the buffer); an empty payload is a payload.
func TestTCPSendRecv(t *testing.T) {
	p := newLinkPair(t, testTCPOptions(), testTCPOptions())
	defer p.Close()
	buf := seqPayload(3)
	if err := p.dial.Send(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // mutation after Send must not reach the peer
	if err := p.dial.Send(nil); err != nil {
		t.Fatal(err)
	}
	if err := p.dial.Send(seqPayload(4)); err != nil {
		t.Fatal(err)
	}
	if err := recvSeq(p.acc, 3); err != nil {
		t.Fatal(err)
	}
	if got, err := p.acc.Recv(); err != nil || len(got) != 0 {
		t.Fatalf("empty payload arrived as %x, %v", got, err)
	}
	if err := recvSeq(p.acc, 4); err != nil {
		t.Fatal(err)
	}
}

// TestTCPChaosRecovery arms every network fault site — drops, delays,
// reordering, duplication, partitions and failed connection attempts — on
// both ends of a link and asserts it delivers exactly what a clean run
// delivers: chaos at these rates must be invisible above the link.
func TestTCPChaosRecovery(t *testing.T) {
	const rounds = 18
	run := func(inj *chaos.Injector) (pings, pongs []uint64) {
		p := newLinkPair(t, testTCPOptions(), testTCPOptions())
		defer p.Close()
		p.setChaos(inj)
		return pingPong(t, p, rounds)
	}
	cleanPings, cleanPongs := run(nil)
	if len(cleanPings) != 2*rounds || len(cleanPongs) != rounds {
		t.Fatalf("clean run delivered %d pings, %d pongs", len(cleanPings), len(cleanPongs))
	}
	for _, seed := range []int64{1, 7, 42} {
		inj := chaos.New(seed, chaos.Config{
			NetDrop:      0.15,
			NetDelay:     0.10,
			NetReorder:   0.15,
			NetDup:       0.15,
			NetPartition: 0.02,
			NetConn:      0.20,
		})
		pings, pongs := run(inj)
		if fmt.Sprint(pings) != fmt.Sprint(cleanPings) || fmt.Sprint(pongs) != fmt.Sprint(cleanPongs) {
			t.Fatalf("seed %d: chaos run diverged:\npings %v\npongs %v", seed, pings, pongs)
		}
	}
}

// TestTCPReconnectFlap is the flap harness of the reconnect path: the conn
// under a link is killed repeatedly mid-traffic and every exchange must
// still complete losslessly, with no goroutine leaked afterwards.
func TestTCPReconnectFlap(t *testing.T) {
	before := runtime.NumGoroutine()
	// Enough rounds that traffic is still flowing when the flaps land.
	const rounds, flaps = 600, 6
	p := newLinkPair(t, testTCPOptions(), testTCPOptions())
	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		// Kill the conn from under the dialing end, repeatedly, while
		// traffic flows.
		rc := p.dial
		for i := 0; i < flaps; i++ {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			rc.mu.Lock()
			if rc.conn != nil {
				rc.conn.Close()
			}
			rc.mu.Unlock()
		}
	}()
	pings, pongs := pingPong(t, p, rounds)
	if len(pings) != 2*rounds || len(pongs) != rounds {
		t.Errorf("flapped run delivered %d pings, %d pongs", len(pings), len(pongs))
	}
	close(stop)
	flapper.Wait()
	p.dial.mu.Lock()
	installs := p.dial.gen
	p.dial.mu.Unlock()
	if installs < 2 {
		t.Errorf("the conn was installed %d time(s): no flap landed mid-traffic", installs)
	}
	p.Close()
	// Goroutine-leak check: everything the pair spawned must wind down.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak after flapping: %d > %d\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestTCPBackoffJitter pins the reconnect schedule: exponential growth from
// BackoffBase, a hard cap at BackoffMax, every wait jittered into [d/2, d],
// and the jitter actually varying between draws.
func TestTCPBackoffJitter(t *testing.T) {
	opts := TCPOptions{BackoffBase: 2 * time.Millisecond, BackoffMax: 64 * time.Millisecond}
	r := AcceptLink(0, 1, opts)
	defer r.Close()
	distinct := make(map[time.Duration]bool)
	for attempt := 0; attempt < 12; attempt++ {
		d := r.opts.BackoffBase << uint(attempt)
		if d <= 0 || d > r.opts.BackoffMax {
			d = r.opts.BackoffMax
		}
		for i := 0; i < 4; i++ {
			got := r.backoff(attempt)
			if got < d/2 || got > d {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, got, d/2, d)
			}
			if got > opts.BackoffMax {
				t.Fatalf("attempt %d: backoff %v above cap %v", attempt, got, opts.BackoffMax)
			}
			distinct[got] = true
		}
	}
	if len(distinct) < 8 {
		t.Errorf("only %d distinct backoff values across 48 draws: jitter looks dead", len(distinct))
	}
	// Deterministic: a fresh link with the same identity draws the same.
	a, b := AcceptLink(3, 4, opts), AcceptLink(3, 4, opts)
	defer a.Close()
	defer b.Close()
	for i := 0; i < 8; i++ {
		if da, db := a.backoff(i), b.backoff(i); da != db {
			t.Fatalf("draw %d: backoff not deterministic: %v != %v", i, da, db)
		}
	}
}

// TestTCPPartitionBudget pins the typed failure: when the peer is gone for
// good (listener and conns down), the retry budget bounds the reconnect
// effort and the caller gets ErrPartition, not a hang.
func TestTCPPartitionBudget(t *testing.T) {
	opts := testTCPOptions()
	opts.IOTimeout = 50 * time.Millisecond
	opts.RetryBudget = 3
	p := newLinkPair(t, opts, opts)
	defer p.Close()
	// Warm the link, then tear the passive end down completely.
	if err := p.dial.Send(seqPayload(0)); err != nil {
		t.Fatal(err)
	}
	if err := recvSeq(p.acc, 0); err != nil {
		t.Fatal(err)
	}
	p.ln.Close()
	p.acc.Close()
	_, err := p.dial.Recv()
	if errors.Is(err, ErrClosed) {
		t.Fatalf("recv from dead peer returned ErrClosed for the survivor: %v", err)
	}
	if !errors.Is(err, ErrPartition) {
		t.Fatalf("recv from dead peer: err = %v, want ErrPartition", err)
	}
}

// TestTCPSilentPeerIsNotPartition is the other side of the budget: a peer
// whose link is up but which has nothing to send yet — a fleet worker deep
// in a solve, a coordinator with nothing to assign — answers every Nak with
// an ack, so a receiver may wait on it far past IOTimeout*RetryBudget
// without the link being declared partitioned.
func TestTCPSilentPeerIsNotPartition(t *testing.T) {
	opts := testTCPOptions()
	opts.IOTimeout = 20 * time.Millisecond
	opts.RetryBudget = 3
	p := newLinkPair(t, opts, opts)
	defer p.Close()
	// Warm the link so the wait below starts on an installed conn.
	if err := p.dial.Send(seqPayload(1)); err != nil {
		t.Fatal(err)
	}
	if err := recvSeq(p.acc, 1); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		time.Sleep(10 * opts.IOTimeout * time.Duration(opts.RetryBudget))
		sent <- p.acc.Send(seqPayload(2))
	}()
	if err := recvSeq(p.dial, 2); err != nil {
		t.Fatalf("recv from a silent but live peer: %v", err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestTCPNakNotStarvedByPeerNaks: two ends wait on each other, the frame one
// of them is owed was lost, and the other — with the shorter IOTimeout —
// Naks every expiry for a reply that cannot be produced before the lost
// frame arrives. Those Naks are link control, not the data the first end
// waits for: they must not keep restarting its wait, or it never asks for
// the lost frame and both ends wait forever.
func TestTCPNakNotStarvedByPeerNaks(t *testing.T) {
	slow, fast := testTCPOptions(), testTCPOptions()
	slow.IOTimeout, fast.IOTimeout = 60*time.Millisecond, 20*time.Millisecond
	p := newLinkPair(t, slow, fast)
	defer p.Close()
	owed, asker := p.acc, p.dial // the passive end will be owed the lost frame

	// Warm the link, then lose one frame on the wire.
	if err := asker.Send([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	if _, err := owed.Recv(); err != nil {
		t.Fatal(err)
	}
	asker.SetChaos(chaos.New(1, chaos.Config{NetDrop: 1}))
	if err := asker.Send([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	asker.SetChaos(nil)

	done := make(chan error, 2)
	go func() {
		if _, err := owed.Recv(); err != nil {
			done <- fmt.Errorf("owed end: %w", err)
			return
		}
		done <- owed.Send([]byte("reply"))
	}()
	go func() {
		_, err := asker.Recv()
		if err != nil {
			err = fmt.Errorf("asking end: %w", err)
		}
		done <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the lost frame was never asked for: both ends still waiting")
		}
	}
}

// TestTCPGarbageHello: a stranger writing garbage at the listener must not
// disturb the link — the conn is dropped and real traffic proceeds.
func TestTCPGarbageHello(t *testing.T) {
	p := newLinkPair(t, testTCPOptions(), testTCPOptions())
	defer p.Close()
	raw, err := net.Dial("tcp", p.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte(strings.Repeat("not a frame ", 8)))
	raw.Close()
	if pings, pongs := pingPong(t, p, 2); len(pings) != 4 || len(pongs) != 2 {
		t.Fatalf("traffic after garbage conn: %d pings, %d pongs", len(pings), len(pongs))
	}
}
