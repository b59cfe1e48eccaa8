package comm

import (
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

func TestTCPSendRecv(t *testing.T) {
	w, err := NewTCPWorld(2, testTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, err := c1.Recv(0)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		if len(got) != 3 || got[0] != 1+2i || got[2] != 3i {
			t.Errorf("recv got %v", got)
		}
	}()
	if err := c0.Send(1, []complex128{1 + 2i, 2, 3i}); err != nil {
		t.Fatal(err)
	}
	<-done
	if w.Messages() != 1 || w.Bytes() != 48 {
		t.Errorf("stats: %d msgs %d bytes", w.Messages(), w.Bytes())
	}
}

func TestTCPRingExchange(t *testing.T) {
	const p = 4
	w, err := NewTCPWorld(p, testTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, _ := w.Comm(rank)
			up := (rank + 1) % p
			down := (rank - 1 + p) % p
			for round := 0; round < 5; round++ {
				got, err := c.SendRecv(up, []complex128{complex(float64(rank), float64(round))}, down)
				if err != nil {
					t.Errorf("rank %d round %d: %v", rank, round, err)
					return
				}
				if got[0] != complex(float64(down), float64(round)) {
					t.Errorf("rank %d round %d: got %v", rank, round, got[0])
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestTCPAllreduceParity pins the tentpole invariant: the TCP fabric's
// rank-0 star and the channel fabric's reducer fold non-associative float
// contributions in the same rank order, so the two fabrics produce
// bit-identical sums.
func TestTCPAllreduceParity(t *testing.T) {
	const p = 4
	contrib := [][]complex128{
		{complex(1e16, 1), 1},
		{complex(1, 1e-8), 1},
		{complex(-1e16, 1), 1},
		{complex(3, 7e-9), 1},
	}
	run := func(w RankWorld) []complex128 {
		defer w.Close()
		out := make([][]complex128, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				c, err := w.Comm(rank)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := c.AllreduceSum(contrib[rank])
				if err != nil {
					t.Errorf("rank %d: %v", rank, err)
					return
				}
				out[rank] = got
			}(r)
		}
		wg.Wait()
		for r := 1; r < p; r++ {
			for i := range out[r] {
				if out[r][i] != out[0][i] {
					t.Fatalf("ranks disagree: %v vs %v", out[r], out[0])
				}
			}
		}
		return out[0]
	}
	cw, err := ChannelFabric{}.NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := TCPFabric{Opts: testTCPOptions()}.NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	chanSum := run(cw)
	tcpSum := run(tw)
	for i := range chanSum {
		if chanSum[i] != tcpSum[i] {
			t.Fatalf("element %d: channel fabric %v != tcp fabric %v", i, chanSum[i], tcpSum[i])
		}
	}
}

// TestTCPAllreduceShapeMismatch mirrors the channel-fabric regression: a
// shape disagreement surfaces as ErrShapeMismatch on every rank and the
// world survives for the next round.
func TestTCPAllreduceShapeMismatch(t *testing.T) {
	const p = 3
	w, err := NewTCPWorld(p, testTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, _ := w.Comm(rank)
			_, errs[rank] = c.AllreduceSum(make([]complex128, 2+rank))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if !errors.Is(err, ErrShapeMismatch) {
			t.Errorf("rank %d: err = %v, want ErrShapeMismatch", r, err)
		}
	}
	var wg2 sync.WaitGroup
	for r := 0; r < p; r++ {
		wg2.Add(1)
		go func(rank int) {
			defer wg2.Done()
			c, _ := w.Comm(rank)
			got, err := c.AllreduceSumScalar(1)
			if err != nil || got != p {
				t.Errorf("rank %d after mismatch: got %v, err %v", rank, got, err)
			}
		}(r)
	}
	wg2.Wait()
}

func TestTCPBarrier(t *testing.T) {
	const p = 3
	w, err := NewTCPWorld(p, testTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var phase [p]int
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, _ := w.Comm(rank)
			phase[rank] = 1
			if err := c.Barrier(); err != nil {
				t.Errorf("rank %d: %v", rank, err)
				return
			}
			for i := 0; i < p; i++ {
				if phase[i] != 1 {
					t.Errorf("rank %d: barrier passed before rank %d arrived", rank, i)
				}
			}
		}(r)
	}
	wg.Wait()
}

// tcpChaosExchange runs rounds of ring exchanges and reductions on a chaos-
// injected TCP world and returns every rank's reduction results.
func tcpChaosExchange(t *testing.T, inj *chaos.Injector, p, rounds int) [][]complex128 {
	t.Helper()
	w, err := NewTCPWorld(p, testTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetChaos(inj)
	out := make([][]complex128, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, _ := w.Comm(rank)
			up := (rank + 1) % p
			down := (rank - 1 + p) % p
			for round := 0; round < rounds; round++ {
				got, err := c.SendRecv(up, []complex128{complex(float64(rank), float64(round))}, down)
				if err != nil {
					t.Errorf("rank %d round %d exchange: %v", rank, round, err)
					return
				}
				if got[0] != complex(float64(down), float64(round)) {
					t.Errorf("rank %d round %d: got %v", rank, round, got[0])
					return
				}
				sum, err := c.AllreduceSumScalar(complex(float64(rank), float64(round)))
				if err != nil {
					t.Errorf("rank %d round %d reduce: %v", rank, round, err)
					return
				}
				out[rank] = append(out[rank], sum)
			}
		}(r)
	}
	wg.Wait()
	return out
}

// TestTCPChaosRecovery arms every network fault site — drops, delays,
// reordering, duplication, partitions and failed connection attempts — and
// asserts the reliable links deliver exactly what a clean run delivers:
// chaos at these rates must be invisible above the transport.
func TestTCPChaosRecovery(t *testing.T) {
	const p, rounds = 3, 12
	clean := tcpChaosExchange(t, nil, p, rounds)
	for _, seed := range []int64{1, 7, 42} {
		inj := chaos.New(seed, chaos.Config{
			NetDrop:      0.15,
			NetDelay:     0.10,
			NetReorder:   0.15,
			NetDup:       0.15,
			NetPartition: 0.02,
			NetConn:      0.20,
		})
		got := tcpChaosExchange(t, inj, p, rounds)
		for r := range got {
			if len(got[r]) != len(clean[r]) {
				t.Fatalf("seed %d rank %d: %d results, want %d", seed, r, len(got[r]), len(clean[r]))
			}
			for i := range got[r] {
				if got[r][i] != clean[r][i] {
					t.Fatalf("seed %d rank %d round %d: chaos run diverged: %v != %v",
						seed, r, i, got[r][i], clean[r][i])
				}
			}
		}
	}
}

// TestTCPReconnectFlap is the flap harness of the reconnect path: the conn
// under a link is killed repeatedly mid-traffic and every exchange must
// still complete losslessly, with no goroutine leaked afterwards.
func TestTCPReconnectFlap(t *testing.T) {
	before := runtime.NumGoroutine()
	const p, rounds, flaps = 2, 40, 6
	w, err := NewTCPWorld(p, testTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		// Kill the rank1->rank0 conn (the only conn of a 2-world) from
		// under the link, repeatedly, while traffic flows.
		rc := w.ranks[1].links[0]
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
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, _ := w.Comm(rank)
			for round := 0; round < rounds; round++ {
				sum, err := c.AllreduceSumScalar(complex(float64(round), 0))
				if err != nil {
					t.Errorf("rank %d round %d: %v", rank, round, err)
					return
				}
				if sum != complex(float64(p*round), 0) {
					t.Errorf("rank %d round %d: sum %v", rank, round, sum)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	flapper.Wait()
	w.Close()
	// Goroutine-leak check: everything the world spawned must wind down.
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
	r := newAcceptorRConn(0, 1, opts)
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
	a, b := newAcceptorRConn(3, 4, opts), newAcceptorRConn(3, 4, opts)
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
	w, err := NewTCPWorld(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c1, _ := w.Comm(1)
	// Warm the link, then tear rank 0 down completely.
	if err := c1.Send(0, []complex128{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ranks[0].Recv(1); err != nil {
		t.Fatal(err)
	}
	w.ranks[0].Close()
	_, err = c1.Recv(0)
	if !errors.Is(err, ErrPartition) && !errors.Is(err, ErrClosed) {
		t.Fatalf("recv from dead peer: err = %v, want ErrPartition", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("recv from dead peer returned ErrClosed for the survivor: %v", err)
	}
}

// TestTCPSilentPeerIsNotPartition is the other side of the budget: a peer
// whose link is up but which has nothing to send yet — it is computing, or
// itself waiting on a third rank — answers every Nak with an ack, so a
// receiver may wait on it far past IOTimeout*RetryBudget without the link
// being declared partitioned.
func TestTCPSilentPeerIsNotPartition(t *testing.T) {
	opts := testTCPOptions()
	opts.IOTimeout = 20 * time.Millisecond
	opts.RetryBudget = 3
	w, err := NewTCPWorld(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	// Warm the link so the wait below starts on an installed conn.
	if err := c1.Send(0, []complex128{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Recv(1); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		time.Sleep(10 * opts.IOTimeout * time.Duration(opts.RetryBudget))
		sent <- c0.Send(1, []complex128{2})
	}()
	got, err := c1.Recv(0)
	if err != nil {
		t.Fatalf("recv from a silent but live peer: %v", err)
	}
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("recv got %v", got)
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	slow, fast := testTCPOptions(), testTCPOptions()
	slow.IOTimeout, fast.IOTimeout = 60*time.Millisecond, 20*time.Millisecond
	owed := AcceptLink(0, 1, slow) // will be owed the lost frame
	defer owed.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_, expected, err := AcceptHello(c, slow.ConnectTimeout, 1<<20)
			if err != nil {
				c.Close()
				continue
			}
			owed.Attach(c, expected)
		}
	}()
	asker := DialLink(1, 0, ln.Addr().String(), fast)
	defer asker.Close()

	// Warm the link, then lose one frame on the wire.
	if err := asker.Send(ChApp, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if _, err := owed.Recv(ChApp); err != nil {
		t.Fatal(err)
	}
	asker.SetChaos(chaos.New(1, chaos.Config{NetDrop: 1}))
	if err := asker.Send(ChApp, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	asker.SetChaos(nil)

	done := make(chan error, 2)
	go func() {
		if _, err := owed.Recv(ChApp); err != nil {
			done <- fmt.Errorf("owed end: %w", err)
			return
		}
		done <- owed.Send(ChApp, []byte("reply"))
	}()
	go func() {
		_, err := asker.Recv(ChApp)
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

// TestTCPGarbageHello: a stranger writing garbage at a rank's listener must
// not disturb the world — the conn is dropped and real traffic proceeds.
func TestTCPGarbageHello(t *testing.T) {
	w, err := NewTCPWorld(2, testTCPOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	raw, err := net.Dial("tcp", w.ranks[0].ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte(strings.Repeat("not a frame ", 8)))
	raw.Close()
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	done := make(chan error, 1)
	go func() {
		_, err := c0.Recv(1)
		done <- err
	}()
	if err := c1.Send(0, []complex128{4i}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("recv after garbage conn: %v", err)
	}
}

// TestJoinTCP exercises the multi-process entry point in-process: three
// endpoints on preassigned loopback ports, joined in arbitrary order.
func TestJoinTCP(t *testing.T) {
	const p = 3
	addrs := make([]string, p)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	ranks := make([]*TCPRank, p)
	for i := range ranks {
		r, err := JoinTCP(i, addrs, testTCPOptions())
		if err != nil {
			t.Fatalf("join rank %d: %v", i, err)
		}
		ranks[i] = r
		defer r.Close()
	}
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			sum, err := ranks[rank].AllreduceSumScalar(complex(float64(rank+1), 0))
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
				return
			}
			if sum != complex(1+2+3, 0) {
				t.Errorf("rank %d: sum %v", rank, sum)
			}
		}(r)
	}
	wg.Wait()
	if _, err := JoinTCP(5, addrs, TCPOptions{}); err == nil {
		t.Error("rank out of range should fail")
	}
}

// TestTCPWorldValidation covers the constructor guards.
func TestTCPWorldValidation(t *testing.T) {
	if _, err := NewTCPWorld(0, TCPOptions{}); err == nil {
		t.Error("world of size 0 should fail")
	}
	if _, err := NewTCPWorld(maxTCPRanks+1, TCPOptions{}); err == nil {
		t.Error("world above the rank-byte limit should fail")
	}
	w, err := NewTCPWorld(1, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c, _ := w.Comm(0)
	if got, err := c.AllreduceSumScalar(7); err != nil || got != 7 {
		t.Errorf("self reduce got %v, err %v", got, err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := fmt.Errorf("wrap: %w", ErrFrameCorrupt); !errors.Is(err, ErrFrameCorrupt) {
		t.Error("ErrFrameCorrupt must survive wrapping")
	}
}
