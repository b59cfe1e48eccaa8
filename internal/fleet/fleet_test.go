package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbs/internal/chaos"
	"cbs/internal/core"
	"cbs/internal/fingerprint"
	"cbs/internal/journal"
	"cbs/internal/sweep"
)

const testOperator = "fleet-test-op: Al(100) stand-in"

// In-process tests run every link on a short horizon so that failure
// detection takes a fraction of a second (TestMain sets it); the
// multi-process test restores the defaults its worker processes run.
const (
	testHeartbeat = 25 * time.Millisecond
	testHorizon   = 400 * time.Millisecond
)

// fleetResult derives a deterministic fake solve result from the energy
// and the options, so a fleet sweep and a single-process sweep agree iff
// the options crossed the wire intact.
func fleetResult(e float64, opts core.Options) *core.Result {
	res := &core.Result{
		Energy:  e,
		Rank:    1,
		Sigma:   []float64{1, 0.5 + e},
		MatVecs: opts.Nint * opts.Nrh,
	}
	res.Diagnostics = core.Diagnostics{Nint: opts.Nint, Nrh: opts.Nrh}
	p := core.Eigenpair{
		Lambda:   complex(0.7+e, -0.1*float64(opts.Seed%7)),
		K:        complex(0.3*e, 0.02),
		Residual: 1e-9,
	}
	for i := 0; i < 3; i++ {
		p.Psi = append(p.Psi, complex(float64(i)*0.125, e))
	}
	res.Pairs = append(res.Pairs, p)
	return res
}

// fleetSolve returns a SolveFunc producing fleetResult after delay.
func fleetSolve(delay time.Duration) sweep.SolveFunc {
	return func(ctx context.Context, e float64, opts core.Options) (*core.Result, error) {
		if delay > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(delay):
			}
		}
		return fleetResult(e, opts), nil
	}
}

func fleetEnergies(n int) []float64 {
	es := make([]float64, n)
	for i := range es {
		es[i] = -0.3 + 0.05*float64(i)
	}
	return es
}

func fleetOptions() core.Options {
	o := core.DefaultOptions()
	o.Nint = 6
	o.Nmm = 3
	o.Nrh = 4
	o.Seed = 11
	return o
}

// golden runs the same sweep single-process; the fleet must match it.
func golden(t *testing.T, es []float64, opts core.Options) *sweep.Report {
	t.Helper()
	rep, err := sweep.Run(context.Background(), fleetSolve(0), es, opts, sweep.Config{})
	if err != nil {
		t.Fatalf("golden sweep: %v", err)
	}
	return rep
}

// assertGolden compares a fleet report against the single-process golden,
// energy by energy: same status, bit-identical encoded result.
func assertGolden(t *testing.T, got, want *sweep.Report) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("got %d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		g, w := got.Results[i], want.Results[i]
		if g.Status != w.Status {
			t.Errorf("energy %d: status %q, want %q (err %v)", i, g.Status, w.Status, g.Err)
			continue
		}
		gb, _ := json.Marshal(sweep.EncodeResult(g.Result))
		wb, _ := json.Marshal(sweep.EncodeResult(w.Result))
		if !bytes.Equal(gb, wb) {
			t.Errorf("energy %d: fleet result diverges from single-process golden\n fleet: %s\n  solo: %s", i, gb, wb)
		}
	}
}

// startCoordinator runs Coordinate in a goroutine and returns the bound
// address plus a join function.
func startCoordinator(ctx context.Context, es []float64, opts core.Options, cfg CoordinatorConfig) (string, func() (*sweep.Report, error)) {
	addrCh := make(chan string, 1)
	prev := cfg.OnListen
	cfg.OnListen = func(a string) {
		addrCh <- a
		if prev != nil {
			prev(a)
		}
	}
	var (
		rep  *sweep.Report
		err  error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		rep, err = Coordinate(ctx, es, opts, cfg)
	}()
	return <-addrCh, func() (*sweep.Report, error) {
		<-done
		return rep, err
	}
}

func TestFleetSweepMatchesSingleProcess(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	es := fleetEnergies(12)
	opts := fleetOptions()

	addr, join := startCoordinator(ctx, es, opts, CoordinatorConfig{
		Addr:         "127.0.0.1:0",
		MinWorkers:   3,
		OperatorDesc: testOperator,
	})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := Work(ctx, fleetSolve(0), WorkerConfig{
				Addr:         addr,
				Name:         fmt.Sprintf("w%d", i),
				OperatorDesc: testOperator,
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}

	rep, err := join()
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	if rep.OK != len(es) || rep.Skipped != 0 {
		t.Fatalf("report: OK=%d Skipped=%d Failed=%d, want all %d OK", rep.OK, rep.Skipped, rep.Failed, len(es))
	}
	assertGolden(t, rep, golden(t, es, opts))
}

// chaosSeed reads the CI chaos seed matrix (CBS_CHAOS_SEED, default 0) so
// each matrix entry draws a different fault pattern on the links.
func chaosSeed() int64 {
	if s := os.Getenv("CBS_CHAOS_SEED"); s != "" {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n
		}
	}
	return 0
}

// linkChaos arms net.reset and net.conn from the first seed at or after s
// whose resets spare the first two writes of links 0..7. A worker cannot
// tell a first registration lost to a reset from a refusal, so by design
// it gives up, and MinWorkers would never be met.
func linkChaos(s int64) *chaos.Injector {
	for ; ; s++ {
		inj := chaos.New(s, chaos.Config{NetReset: 0.05, NetConn: 0.05})
		spared := true
		for link := 0; link < 8; link++ {
			spared = spared && !inj.NetReset(link, 0) && !inj.NetReset(link, 1)
		}
		if spared {
			return inj
		}
	}
}

// TestFleetKillAndReshard is the self-healing acceptance: three workers,
// net.reset and net.conn armed on both link ends, one worker killed
// mid-sweep. The coordinator must detect the death, re-dispatch the dead
// worker's energies to the survivors, and converge to the single-process
// golden. Survivors whose links the chaos resets redial and register again
// inside Work — under any seed the sweep must still finish golden.
func TestFleetKillAndReshard(t *testing.T) {
	for _, seed := range []int64{3, 11, 42} {
		seed += chaosSeed() * 1000
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			es := fleetEnergies(10)
			opts := fleetOptions()

			var solved atomic.Int32
			addr, join := startCoordinator(ctx, es, opts, CoordinatorConfig{
				Addr:         "127.0.0.1:0",
				MinWorkers:   3,
				OperatorDesc: testOperator,
				Chaos:        linkChaos(seed),
				OnEnergy:     func(sweep.EnergyResult) { solved.Add(1) },
			})

			victimCtx, kill := context.WithCancel(ctx)
			defer kill()
			var wg sync.WaitGroup
			errs := make([]error, 3)
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					wctx := ctx
					if i == 0 {
						wctx = victimCtx
					}
					errs[i] = Work(wctx, fleetSolve(10*time.Millisecond), WorkerConfig{
						Addr:         addr,
						Name:         fmt.Sprintf("w%d", i),
						OperatorDesc: testOperator,
						Chaos:        linkChaos(seed + int64(i) + 1),
					})
				}(i)
			}

			// Kill worker 0 once the sweep is demonstrably mid-flight.
			for solved.Load() < 2 {
				select {
				case <-ctx.Done():
					t.Fatal("sweep stalled before the kill point")
				case <-time.After(time.Millisecond):
				}
			}
			kill()

			rep, err := join()
			wg.Wait()
			if err != nil {
				t.Fatalf("coordinate: %v", err)
			}
			if !errors.Is(errs[0], context.Canceled) {
				t.Errorf("killed worker returned %v, want context.Canceled", errs[0])
			}
			// Survivors either saw the sweep out (nil) or were cut off
			// mid-rejoin when the finished coordinator stopped listening;
			// anything but ErrLinkLost is a transport bug.
			for i := 1; i < 3; i++ {
				if errs[i] != nil && !errors.Is(errs[i], ErrLinkLost) {
					t.Errorf("survivor %d: error not typed: %v", i, errs[i])
				}
			}
			if rep.OK != len(es) || rep.Skipped != 0 {
				t.Fatalf("report after kill: OK=%d Skipped=%d Failed=%d, want all %d OK", rep.OK, rep.Skipped, rep.Failed, len(es))
			}
			assertGolden(t, rep, golden(t, es, opts))
		})
	}
}

// TestFleetOperatorMismatch: a worker solving different physics must be
// refused at registration and give up at once with ErrLinkLost (a refused
// first registration is not redialed), and the sweep must complete on the
// workers that match.
func TestFleetOperatorMismatch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	es := fleetEnergies(4)
	opts := fleetOptions()

	addr, join := startCoordinator(ctx, es, opts, CoordinatorConfig{
		Addr:         "127.0.0.1:0",
		OperatorDesc: testOperator,
	})

	imposterErr := make(chan error, 1)
	go func() {
		imposterErr <- Work(ctx, fleetSolve(0), WorkerConfig{
			Addr:         addr,
			Name:         "imposter",
			OperatorDesc: "a different crystal entirely",
		})
	}()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := Work(ctx, fleetSolve(0), WorkerConfig{
			Addr:         addr,
			Name:         "honest",
			OperatorDesc: testOperator,
		}); err != nil {
			t.Errorf("honest worker: %v", err)
		}
	}()

	rep, err := join()
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	if rep.OK != len(es) {
		t.Fatalf("report: OK=%d, want %d", rep.OK, len(es))
	}
	select {
	case werr := <-imposterErr:
		if werr == nil {
			t.Fatal("imposter worker completed; want a typed refusal")
		}
		if !errors.Is(werr, ErrLinkLost) || !strings.Contains(werr.Error(), "registration refused") {
			t.Errorf("imposter returned %v, want a refused registration wrapping ErrLinkLost", werr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("imposter worker never returned")
	}
}

// TestFleetResume: a completed fleet journal restores without any workers.
func TestFleetResume(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	es := fleetEnergies(6)
	opts := fleetOptions()
	path := filepath.Join(t.TempDir(), "fleet.journal")

	addr, join := startCoordinator(ctx, es, opts, CoordinatorConfig{
		Addr:           "127.0.0.1:0",
		OperatorDesc:   testOperator,
		CheckpointPath: path,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := Work(ctx, fleetSolve(0), WorkerConfig{
			Addr: addr, Name: "w0", OperatorDesc: testOperator,
		}); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	rep, err := join()
	wg.Wait()
	if err != nil || rep.OK != len(es) {
		t.Fatalf("first run: OK=%d err=%v", rep.OK, err)
	}

	// Second run: everything restores from the journal; no worker ever
	// dials, no listener is even opened past the restore.
	rep2, err := Coordinate(ctx, es, opts, CoordinatorConfig{
		Addr:           "127.0.0.1:0",
		OperatorDesc:   testOperator,
		CheckpointPath: path,
		Resume:         true,
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep2.Restored != len(es) || rep2.OK != len(es) || rep2.Attempts != 0 {
		t.Fatalf("resume report: Restored=%d OK=%d Attempts=%d, want %d restored", rep2.Restored, rep2.OK, rep2.Attempts, len(es))
	}
	assertGolden(t, rep2, golden(t, es, opts))
}

// --- multi-process acceptance ---------------------------------------------

// TestMain doubles as the worker executable: when CBS_FLEET_WORKER_ADDR is
// set, the test binary runs one fleet worker and exits, so the SIGKILL
// acceptance below can kill a real OS process mid-sweep. A worker process
// runs the default heartbeat and horizon.
func TestMain(m *testing.M) {
	addr := os.Getenv("CBS_FLEET_WORKER_ADDR")
	if addr == "" {
		linkTiming.heartbeat, linkTiming.horizon = testHeartbeat, testHorizon
		os.Exit(m.Run())
	}
	delay, _ := time.ParseDuration(os.Getenv("CBS_FLEET_SOLVE_DELAY"))
	var inj *chaos.Injector
	if s := os.Getenv("CBS_FLEET_CHAOS_SEED"); s != "" {
		seed, _ := strconv.ParseInt(s, 10, 64)
		inj = chaos.New(seed, chaos.Config{NetConn: 0.2})
	}
	err := Work(context.Background(), fleetSolve(delay), WorkerConfig{
		Addr:         addr,
		Name:         os.Getenv("CBS_FLEET_WORKER_NAME"),
		OperatorDesc: testOperator,
		Chaos:        inj,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestFleetProcessKillAndReshard is the end-to-end acceptance from the
// issue: three worker OS processes over real localhost TCP, their dials
// under net.conn chaos, one of them SIGKILLed mid-sweep; the surviving
// processes absorb the re-dispatched energies, the report is identical to
// the single-process golden, and the survivors exit 0. Both ends run the
// default heartbeat and horizon: race-instrumented worker processes start
// slowly and contend for CPU.
func TestFleetProcessKillAndReshard(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	fast := linkTiming
	linkTiming.heartbeat, linkTiming.horizon = heartbeatPeriod, linkHorizon
	defer func() { linkTiming = fast }()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	es := fleetEnergies(12)
	opts := fleetOptions()

	var solved atomic.Int32
	addr, join := startCoordinator(ctx, es, opts, CoordinatorConfig{
		Addr:         "127.0.0.1:0",
		MinWorkers:   3,
		OperatorDesc: testOperator,
		OnEnergy:     func(sweep.EnergyResult) { solved.Add(1) },
	})

	procs := make([]*exec.Cmd, 3)
	for i := range procs {
		cmd := exec.Command(exe, "-test.run=^$")
		cmd.Env = append(os.Environ(),
			"CBS_FLEET_WORKER_ADDR="+addr,
			fmt.Sprintf("CBS_FLEET_WORKER_NAME=proc%d", i),
			"CBS_FLEET_SOLVE_DELAY=20ms",
			fmt.Sprintf("CBS_FLEET_CHAOS_SEED=%d", 100+i),
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
		procs[i] = cmd
	}
	defer func() {
		for _, p := range procs {
			p.Process.Kill()
			p.Wait()
		}
	}()

	for solved.Load() < 2 {
		select {
		case <-ctx.Done():
			t.Fatal("sweep stalled before the kill point")
		case <-time.After(time.Millisecond):
		}
	}
	// kill -9: the process gets no chance to say goodbye.
	if err := procs[0].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[0].Wait()

	rep, err := join()
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	if rep.OK != len(es) || rep.Skipped != 0 {
		t.Fatalf("report after SIGKILL: OK=%d Skipped=%d Failed=%d, want all %d OK", rep.OK, rep.Skipped, rep.Failed, len(es))
	}
	assertGolden(t, rep, golden(t, es, opts))

	for i, p := range procs[1:] {
		if err := p.Wait(); err != nil {
			t.Errorf("surviving worker %d exited with %v", i+1, err)
		}
	}
}

// --- protocol hardening ------------------------------------------------------

// rawRegister is a hand-rolled worker's front half: a bare link to the
// coordinator, the register/welcome exchange, and nothing else — whatever the
// caller does with the link afterwards is the misbehaviour under test.
func rawRegister(t *testing.T, addr, name string) *link {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	l := newLink(c, nil, 0)
	l.send(msg{Type: msgRegister, Name: name, Operator: fingerprint.Operator(testOperator)})
	welcome, err := l.recv()
	if err != nil || welcome.Type != msgWelcome {
		t.Fatalf("%s: welcome: %+v, %v", name, welcome, err)
	}
	return l
}

// goodRecord is the record an honest worker would ship for energy i.
func goodRecord(es []float64, i int, opts core.Options) *sweep.Record {
	rec := sweep.RecordOf(sweep.EnergyResult{
		Index: i, Energy: es[i], Status: sweep.StatusOK, Attempts: 1, Result: fleetResult(es[i], opts),
	})
	return &rec
}

// resultLie is one result message a buggy worker could answer assignment a
// with: it names an energy the sweep has but carries a record that is not
// that energy's terminal outcome.
type resultLie struct {
	name  string
	forge func(a msg) msg
}

func resultLies(es []float64, opts core.Options) []resultLie {
	other := func(i int) int { return (i + 1) % len(es) }
	return []resultLie{
		{"record of another energy", func(a msg) msg {
			return msg{Type: msgResult, Index: a.Index, Record: goodRecord(es, other(a.Index), opts)}
		}},
		{"record index rewritten", func(a msg) msg {
			rec := goodRecord(es, a.Index, opts)
			rec.Index = other(a.Index)
			return msg{Type: msgResult, Index: a.Index, Record: rec}
		}},
		{"energy one ulp off", func(a msg) msg {
			rec := goodRecord(es, a.Index, opts)
			rec.Energy = math.Nextafter(rec.Energy, 1)
			return msg{Type: msgResult, Index: a.Index, Record: rec}
		}},
		{"non-terminal status", func(a msg) msg {
			rec := goodRecord(es, a.Index, opts)
			rec.Status = sweep.StatusSkipped
			return msg{Type: msgResult, Index: a.Index, Record: rec}
		}},
		{"unknown status", func(a msg) msg {
			rec := goodRecord(es, a.Index, opts)
			rec.Status = "fine"
			return msg{Type: msgResult, Index: a.Index, Record: rec}
		}},
		{"no record", func(a msg) msg {
			return msg{Type: msgResult, Index: a.Index}
		}},
		{"index out of range", func(a msg) msg {
			return msg{Type: msgResult, Index: len(es), Record: goodRecord(es, a.Index, opts)}
		}},
	}
}

// TestFleetLyingWorkerRejected: a worker that answers an assignment with a
// record for a different energy (or a non-terminal one) is a protocol
// violation — it is dropped, nothing of what it sent reaches the report or
// the journal, and its energies return to the pool for an honest worker.
// Unchecked, energy j's physics would be journaled under index i and a
// resume would serve it.
func TestFleetLyingWorkerRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	es := fleetEnergies(4)
	opts := fleetOptions()
	path := filepath.Join(t.TempDir(), "fleet.journal")

	var seen atomic.Int32
	addr, join := startCoordinator(ctx, es, opts, CoordinatorConfig{
		Addr:           "127.0.0.1:0",
		OperatorDesc:   testOperator,
		CheckpointPath: path,
		OnEnergy:       func(sweep.EnergyResult) { seen.Add(1) },
	})

	for k, lie := range resultLies(es, opts) {
		l := rawRegister(t, addr, fmt.Sprintf("liar%d", k))
		assign, err := l.recv()
		if err != nil || assign.Type != msgAssign {
			t.Fatalf("%s: expected an assignment, got %+v, %v", lie.name, assign, err)
		}
		if err := l.send(lie.forge(assign)); err != nil {
			t.Fatalf("%s: send: %v", lie.name, err)
		}
		// The coordinator hangs up: after the assignments already queued on
		// the link, recv must fail with ErrLinkLost.
		dead := make(chan error, 1)
		go func() {
			for {
				if _, err := l.recv(); err != nil {
					dead <- err
					return
				}
			}
		}()
		select {
		case err := <-dead:
			if !errors.Is(err, ErrLinkLost) {
				t.Errorf("%s: liar's link ended with %v, want ErrLinkLost", lie.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the coordinator kept the lying worker", lie.name)
		}
		l.close()
		if n := seen.Load(); n != 0 {
			t.Fatalf("%s: %d energies reached a terminal state from a lying worker", lie.name, n)
		}
	}

	if err := Work(ctx, fleetSolve(0), WorkerConfig{
		Addr: addr, Name: "honest", OperatorDesc: testOperator,
	}); err != nil {
		t.Fatalf("honest worker: %v", err)
	}
	rep, err := join()
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	want := golden(t, es, opts)
	assertGolden(t, rep, want)

	recs, err := sweep.Load(path, sweep.Fingerprint(testOperator, es, opts))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(es) {
		t.Fatalf("journal holds %d records, want exactly one per energy (%d)", len(recs), len(es))
	}
	for _, rec := range recs {
		if rec.Index < 0 || rec.Index >= len(es) || rec.Energy != es[rec.Index] {
			t.Fatalf("journal record %d carries energy %g", rec.Index, rec.Energy)
		}
		gb, _ := json.Marshal(rec.Result)
		wb, _ := json.Marshal(sweep.EncodeResult(want.Results[rec.Index].Result))
		if !bytes.Equal(gb, wb) {
			t.Errorf("journal record %d is not that energy's result", rec.Index)
		}
	}
}

// TestFleetSilentWorkerSurvives pins the heartbeat as the fleet's only
// liveness mechanism. A worker whose every solve outlasts the horizon three
// times over, sending no message meanwhile, is neither dropped nor has its
// energies re-dispatched: its link's writer heartbeats on its own. A peer
// that has stopped sending at all — a SIGSTOPped process: the conn stays
// open, nothing ever comes back — is dropped within the horizon and its
// energies move to the survivor.
func TestFleetSilentWorkerSurvives(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	es := fleetEnergies(4)
	opts := fleetOptions()
	horizon := linkTiming.horizon

	addr, join := startCoordinator(ctx, es, opts, CoordinatorConfig{
		Addr:         "127.0.0.1:0",
		MinWorkers:   2,
		OperatorDesc: testOperator,
	})

	solves := make([]atomic.Int32, len(es))
	slow := func(ctx context.Context, e float64, o core.Options) (*core.Result, error) {
		for i := range es {
			if es[i] == e {
				solves[i].Add(1)
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(3 * horizon):
		}
		return fleetResult(e, o), nil
	}
	busyErr := make(chan error, 1)
	go func() {
		busyErr <- Work(ctx, slow, WorkerConfig{Addr: addr, Name: "busy", OperatorDesc: testOperator})
	}()

	// The frozen peer writes one raw frame over a bare conn, so nothing (no
	// link writer) heartbeats for it: register, read until its first
	// assignment, then silence with the conn left open. Its reads send
	// nothing, and time how long the coordinator keeps it.
	frozen, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer frozen.Close()
	register, _ := json.Marshal(msg{Type: msgRegister, Name: "frozen", Operator: fingerprint.Operator(testOperator)})
	if _, err := frozen.Write(journal.Frame(register)); err != nil {
		t.Fatal(err)
	}
	frozen.SetReadDeadline(time.Now().Add(10 * time.Second))
	in := bufio.NewReader(frozen)
	for assigned := false; !assigned; {
		payload, err := readFrame(in, maxLine)
		if err != nil {
			t.Fatalf("frozen peer never saw an assignment: %v", err)
		}
		m, _ := decodeMsg(payload)
		assigned = m.Type == msgAssign
	}
	silent := time.Now()
	for {
		if _, err := readFrame(in, maxLine); err != nil {
			break
		}
	}
	if kept := time.Since(silent); kept > 2*horizon {
		t.Errorf("the frozen peer was dropped %v after its last frame, want within the horizon %v", kept, horizon)
	}

	rep, err := join()
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	if err := <-busyErr; err != nil {
		t.Errorf("the silent-but-live worker was cut off: %v", err)
	}
	if rep.OK != len(es) {
		t.Fatalf("report: OK=%d Skipped=%d Failed=%d, want all %d OK (the frozen peer's energies must move)", rep.OK, rep.Skipped, rep.Failed, len(es))
	}
	for i := range solves {
		if n := solves[i].Load(); n != 1 {
			t.Errorf("energy %d solved %d times on the live worker, want 1 (no re-dispatch of a busy worker's energies)", i, n)
		}
	}
	assertGolden(t, rep, golden(t, es, opts))
}

// TestResumeLastRecordWinsInBothEngines feeds one hand-written journal
// through sweep.Run and through Coordinate: the restore is one function in
// package sweep, so the two engines must agree on every journal shape — in
// particular on the Failed-then-OK pair a RetryFailed run leaves behind:
// the last record wins (OK), and OnEnergy fires once for that energy, not
// once per record.
func TestResumeLastRecordWinsInBothEngines(t *testing.T) {
	es := fleetEnergies(3)
	opts := fleetOptions()
	ok := func(i int) sweep.Record { return *goodRecord(es, i, opts) }
	failed := func(i int) sweep.Record {
		return sweep.Record{Index: i, Energy: es[i], Status: sweep.StatusFailed, Attempts: 3, Error: "transient machine trouble"}
	}
	cases := []struct {
		name        string
		journal     []sweep.Record
		retryFailed bool
		restored    int          // energies served from the journal
		status1     sweep.Status // energy 1's terminal status
		fromJournal bool         // ... and whether it was restored
	}{
		{"failed then ok", []sweep.Record{ok(0), failed(1), ok(1), ok(2)}, false, 3, sweep.StatusOK, true},
		{"failed then ok, retrying failures", []sweep.Record{ok(0), failed(1), ok(1), ok(2)}, true, 3, sweep.StatusOK, true},
		{"failed only", []sweep.Record{ok(0), failed(1), ok(2)}, false, 3, sweep.StatusFailed, true},
		{"failed only, retrying failures", []sweep.Record{ok(0), failed(1), ok(2)}, true, 2, sweep.StatusOK, false},
		{"stale index ignored", []sweep.Record{ok(0), ok(1), ok(2), {Index: 7, Energy: 1, Status: sweep.StatusOK}}, false, 3, sweep.StatusOK, true},
	}
	engines := []struct {
		name string
		run  func(ctx context.Context, path string, retryFailed bool, onEnergy func(sweep.EnergyResult)) (*sweep.Report, error)
	}{
		{"sweep.Run", func(ctx context.Context, path string, retryFailed bool, onEnergy func(sweep.EnergyResult)) (*sweep.Report, error) {
			return sweep.Run(ctx, fleetSolve(0), es, opts, sweep.Config{
				CheckpointPath: path, Resume: true, RetryFailed: retryFailed, OperatorDesc: testOperator, OnEnergy: onEnergy,
			})
		}},
		{"fleet.Coordinate", func(ctx context.Context, path string, retryFailed bool, onEnergy func(sweep.EnergyResult)) (*sweep.Report, error) {
			var (
				wg   sync.WaitGroup
				werr error
			)
			rep, err := Coordinate(ctx, es, opts, CoordinatorConfig{
				Addr: "127.0.0.1:0", OperatorDesc: testOperator,
				CheckpointPath: path, Resume: true, RetryFailed: retryFailed, OnEnergy: onEnergy,
				// A listener is only opened when something is left to solve.
				OnListen: func(addr string) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						werr = Work(ctx, fleetSolve(0), WorkerConfig{Addr: addr, Name: "w", OperatorDesc: testOperator})
					}()
				},
			})
			wg.Wait()
			if err == nil {
				err = werr
			}
			return rep, err
		}},
	}
	for _, tc := range cases {
		for _, eng := range engines {
			t.Run(tc.name+"/"+eng.name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				path := filepath.Join(t.TempDir(), "sweep.journal")
				j, err := sweep.Create(path, sweep.Fingerprint(testOperator, es, opts))
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range tc.journal {
					if err := j.Append(rec); err != nil {
						t.Fatal(err)
					}
				}
				j.Close()

				var mu sync.Mutex
				restoredCalls := make(map[int]int)
				calls := 0
				rep, err := eng.run(ctx, path, tc.retryFailed, func(er sweep.EnergyResult) {
					mu.Lock()
					defer mu.Unlock()
					calls++
					if er.FromJournal {
						restoredCalls[er.Index]++
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Restored != tc.restored || rep.OK+rep.Degraded+rep.Failed != len(es) || rep.Skipped != 0 {
					t.Errorf("report %+v: want %d restored, every energy terminal", rep, tc.restored)
				}
				if got := rep.Results[1]; got.Status != tc.status1 || got.FromJournal != tc.fromJournal {
					t.Errorf("energy 1: status %q fromJournal %v, want %q %v", got.Status, got.FromJournal, tc.status1, tc.fromJournal)
				}
				if calls != len(es) {
					t.Errorf("OnEnergy fired %d times for %d energies", calls, len(es))
				}
				for i, n := range restoredCalls {
					if n != 1 {
						t.Errorf("OnEnergy fired %d times for restored energy %d", n, i)
					}
				}
				if len(restoredCalls) != tc.restored {
					t.Errorf("OnEnergy saw %d restored energies, want %d", len(restoredCalls), tc.restored)
				}
			})
		}
	}
}

// FuzzFleetMsg drives arbitrary link payloads through the coordinator's
// receive path — the JSON decode and onResult with its validation — which is
// everything a registered worker's bytes can reach. It must never panic,
// and a record reaches the report and the journal only if it is the terminal
// outcome of the very energy the message names.
func FuzzFleetMsg(f *testing.F) {
	es := fleetEnergies(3)
	opts := fleetOptions()
	seed := func(m msg) {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(msg{Type: msgRegister, Name: "w1", Operator: fingerprint.Operator(testOperator)})
	seed(msg{Type: msgWelcome, Operator: fingerprint.Operator(testOperator), Opts: &opts})
	seed(msg{Type: msgAssign, Index: 1, Energy: es[1], Key: "k"})
	seed(msg{Type: msgDone})
	for i := range es {
		seed(msg{Type: msgResult, Index: i, Record: goodRecord(es, i, opts)})
	}
	seed(msg{Type: msgResult, Index: 1, Record: &sweep.Record{Index: 1, Energy: es[1], Status: sweep.StatusFailed, Attempts: 3, Error: "boom"}})
	for _, lie := range resultLies(es, opts) {
		seed(lie.forge(msg{Index: 1}))
	}
	f.Add([]byte(`{"type":"heartbeat"}`)) // an older peer's keepalive
	f.Add([]byte(`{"type":"result","index":-1,"record":{"index":-1}}`))
	f.Add([]byte(`{"type":"result","index":1,"record":{"index":1,"energy":-0.25,"status":"ok","result":{"pairs":[{"psi":[1]}]}}}`))
	f.Add([]byte(`not json`))

	path := filepath.Join(f.TempDir(), "fuzz.journal")
	journal, err := sweep.Create(path, "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { journal.Close() })
	size := func(t *testing.T) int64 {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := decodeMsg(body)
		if err != nil || m.Type != msgResult {
			return // serve ignores everything but results
		}
		co := &coordinator{
			es:         es,
			workers:    make(map[int]*remote),
			assignedTo: []int{1, 1, 1},
			report:     sweep.NewReport(es),
			journal:    journal,
			remaining:  len(es),
			finished:   make(chan struct{}),
		}
		w := &remote{id: 1, assigned: map[int]bool{0: true, 1: true, 2: true}}
		before := size(t)
		accepted := co.onResult(w, m)

		// The oracle, written out independently of validResult.
		honest := m.Record != nil && m.Index >= 0 && m.Index < len(es) &&
			m.Record.Index == m.Index &&
			math.Float64bits(m.Record.Energy) == math.Float64bits(es[m.Index]) &&
			(m.Record.Status == sweep.StatusOK || m.Record.Status == sweep.StatusDegraded || m.Record.Status == sweep.StatusFailed)
		if accepted != honest {
			t.Fatalf("onResult accepted=%v, oracle says %v: %s", accepted, honest, body)
		}
		grew := size(t) > before
		if grew != honest {
			t.Fatalf("journal grew=%v for a message the oracle rates %v: %s", grew, honest, body)
		}
		for i, er := range co.report.Results {
			if done := er.Status != sweep.StatusSkipped; done != (honest && i == m.Index) {
				t.Fatalf("energy %d done=%v after %s", i, done, body)
			}
		}
	})
}
