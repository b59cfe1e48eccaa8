package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// FuzzOpenStore feeds arbitrary log bytes to OpenStore, which replays
// whatever a crash or another program left in jobs.log. It must never
// panic, must fail only with ErrLogMismatch, and a log it opened must reopen
// to the same jobs: the startup compaction it may run is idempotent.
func FuzzOpenStore(f *testing.F) {
	const operator = "op-fuzz"
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.log")
	st, _, err := OpenStore(path, operator)
	if err != nil {
		f.Fatal(err)
	}
	m := New(Config{Workers: 1, QueueDepth: 4, Store: st})
	id, err := m.Submit(Submission{
		Kind: KindSweep, Client: "alice", Spec: json.RawMessage(`{"ne":3}`),
		Task: func(ctx context.Context, progress func(int, int)) (Outcome, error) {
			progress(1, 3)
			progress(3, 3)
			return Outcome{}, nil
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if snap, _ := m.Get(id); snap.State.Terminal() {
			break
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m.Drain(ctx) //nolint:errcheck // seed-corpus setup
	st.Close()
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add(append(append([]byte(nil), good...), []byte("0badf00d\t{\"job\":\"j000009\"}\n")...))
	f.Add([]byte("not a log\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, first, err := OpenStore(path, operator)
		if err != nil {
			if !errors.Is(err, ErrLogMismatch) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		st.Close()
		st, again, err := OpenStore(path, operator)
		if err != nil {
			t.Fatalf("a log that opened once fails to reopen: %v", err)
		}
		st.Close()
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("reopening changed the jobs:\n first %+v\n again %+v", first, again)
		}
	})
}
