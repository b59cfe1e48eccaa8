package comm

import (
	"errors"
	"sync"
	"testing"

	"cbs/internal/chaos"
)

func TestSendRecv(t *testing.T) {
	w, err := NewWorld(2)
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
		if len(got) != 3 || got[0] != 1 || got[2] != 3i {
			t.Errorf("recv got %v", got)
		}
	}()
	data := []complex128{1, 2, 3i}
	if err := c0.Send(1, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 99 // mutation after send must not affect the message
	<-done
	if w.Messages() != 1 || w.Bytes() != 48 {
		t.Errorf("stats: %d msgs %d bytes", w.Messages(), w.Bytes())
	}
}

func TestRingExchange(t *testing.T) {
	// Every rank sends to (rank+1) mod P and receives from (rank-1+P) mod P
	// simultaneously: must not deadlock.
	const p = 8
	w, err := NewWorld(p)
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
			got, err := c.SendRecv(up, []complex128{complex(float64(rank), 0)}, down)
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
				return
			}
			if got[0] != complex(float64(down), 0) {
				t.Errorf("rank %d received %v, want %d", rank, got[0], down)
			}
		}(r)
	}
	wg.Wait()
}

func TestAllreduceSum(t *testing.T) {
	const p = 5
	w, err := NewWorld(p)
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
			// Two consecutive reductions must stay ordered.
			got, err := c.AllreduceSum([]complex128{complex(float64(rank), 0), 1})
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
				return
			}
			if got[0] != complex(0+1+2+3+4, 0) || got[1] != 5 {
				t.Errorf("rank %d: first reduce got %v", rank, got)
			}
			got2, err := c.AllreduceSum([]complex128{complex(0, float64(rank))})
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
				return
			}
			if got2[0] != complex(0, 10) {
				t.Errorf("rank %d: second reduce got %v", rank, got2)
			}
		}(r)
	}
	wg.Wait()
}

// TestAllreduceShapeMismatch: ranks disagreeing about the reduction length
// must every one receive a typed ErrShapeMismatch — never a panic, never a
// hang. Regression test for the panic that used to live in the reducer: a
// remote peer must not be able to kill a worker process.
func TestAllreduceShapeMismatch(t *testing.T) {
	const p = 3
	w, err := NewWorld(p)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, _ := w.Comm(rank)
			data := make([]complex128, 2+rank) // every rank a different length
			_, errs[rank] = c.AllreduceSum(data)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if !errors.Is(err, ErrShapeMismatch) {
			t.Errorf("rank %d: err = %v, want ErrShapeMismatch", r, err)
		}
	}
	// The world must survive the failed round: a well-shaped reduction
	// still completes.
	var wg2 sync.WaitGroup
	for r := 0; r < p; r++ {
		wg2.Add(1)
		go func(rank int) {
			defer wg2.Done()
			c, _ := w.Comm(rank)
			got, err := c.AllreduceSum([]complex128{1})
			if err != nil || got[0] != p {
				t.Errorf("rank %d after mismatch: got %v, err %v", rank, got, err)
			}
		}(r)
	}
	wg2.Wait()
}

// TestAllreduceRankOrderDeterminism: the reducer must fold contributions
// in rank order regardless of arrival order, so repeated runs produce
// bit-identical sums of non-associative float data.
func TestAllreduceRankOrderDeterminism(t *testing.T) {
	const p = 4
	contrib := [][]complex128{
		{complex(1e16, 0), 1},
		{complex(1, 0), 1},
		{complex(-1e16, 0), 1},
		{complex(3, 0), 1},
	}
	run := func() []complex128 {
		w, err := NewWorld(p)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var wg sync.WaitGroup
		out := make([][]complex128, p)
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				c, _ := w.Comm(rank)
				got, err := c.AllreduceSum(contrib[rank])
				if err != nil {
					t.Errorf("rank %d: %v", rank, err)
				}
				out[rank] = got
			}(r)
		}
		wg.Wait()
		for r := 1; r < p; r++ {
			if out[r][0] != out[0][0] {
				t.Fatalf("ranks disagree: %v vs %v", out[r], out[0])
			}
		}
		return out[0]
	}
	// Rank-order fold: ((1e16 + 1) + -1e16) + 3 == 3 exactly in float64
	// (1e16+1 rounds back to 1e16); any other order gives different bits.
	// Computed through a variable so the fold happens at runtime, not in
	// exact constant arithmetic.
	big := complex(1e16, 0)
	want := ((big + 1) - big) + 3
	for i := 0; i < 10; i++ {
		got := run()
		if got[0] != want || got[1] != p {
			t.Fatalf("run %d: got %v, want [%v %v]", i, got, want, p)
		}
	}
}

func TestWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("world of size 0 should fail")
	}
	w, _ := NewWorld(2)
	defer w.Close()
	if _, err := w.Comm(2); err == nil {
		t.Error("rank out of range should fail")
	}
	if _, err := w.Comm(-1); err == nil {
		t.Error("negative rank should fail")
	}
}

func TestWorldOfOneRank(t *testing.T) {
	w, err := NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c, _ := w.Comm(0)
	if got, err := c.AllreduceSum([]complex128{7}); err != nil || got[0] != 7 {
		t.Errorf("self reduce got %v, err %v", got, err)
	}
}

// TestClosedWorld: ranks blocked in collectives of a closed world must
// unblock with a typed ErrClosed instead of hanging.
func TestClosedWorld(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	c0, _ := w.Comm(0)
	done := make(chan error, 1)
	go func() {
		_, err := c0.AllreduceSum([]complex128{1}) // rank 1 never joins
		done <- err
	}()
	w.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := c0.Recv(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv on closed world: err = %v, want ErrClosed", err)
	}
}

// TestChaosCorruptsPayloadDeterministically: with an injector installed,
// targeted sends arrive zeroed, the decision depends only on
// (seed, src, dst, sequence), and a nil injector leaves traffic untouched.
func TestChaosCorruptsPayloadDeterministically(t *testing.T) {
	payload := []complex128{1 + 2i, 3 - 4i, 5i}

	run := func(inj *chaos.Injector, nmsg int) [][]complex128 {
		w, err := NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		w.SetChaos(inj)
		c0, _ := w.Comm(0)
		c1, _ := w.Comm(1)
		var got [][]complex128
		for i := 0; i < nmsg; i++ {
			if err := c0.Send(1, payload); err != nil {
				t.Fatal(err)
			}
			msg, err := c1.Recv(0)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, msg)
		}
		return got
	}

	// Certain corruption: every payload on the link arrives zeroed.
	for i, msg := range run(chaos.New(7, chaos.Config{Halo: 1}), 3) {
		for j, v := range msg {
			if v != 0 {
				t.Fatalf("message %d element %d survived certain corruption: %v", i, j, v)
			}
		}
	}

	// Nil injector: payloads arrive intact.
	for _, msg := range run(nil, 2) {
		for j, v := range msg {
			if v != payload[j] {
				t.Fatalf("clean fabric altered element %d: %v", j, v)
			}
		}
	}

	// Partial corruption is a pure function of the sequence number: two
	// fresh worlds with the same seed corrupt the same messages.
	a := run(chaos.New(11, chaos.Config{Halo: 0.5}), 16)
	b := run(chaos.New(11, chaos.Config{Halo: 0.5}), 16)
	corrupted := 0
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("corruption not deterministic at message %d element %d", i, j)
			}
		}
		if a[i][0] == 0 {
			corrupted++
		}
	}
	if corrupted == 0 || corrupted == 16 {
		t.Errorf("expected a mix of corrupted and clean messages, got %d/16 corrupted", corrupted)
	}
}
