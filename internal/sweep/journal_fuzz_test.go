package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalParse feeds arbitrary file bytes to the journal loader, which
// reads whatever a crash, a torn write or another program left on disk. It
// must never panic, must fail only with ErrBadJournal or
// ErrFingerprintMismatch, and every record it returns must survive
// RecordOf(rec.Restore()): once normalised by one trip (an odd-length
// vector loses its dangling half), a record round-trips byte for byte, and
// a record the journal wrote itself round-trips on the first trip.
func FuzzJournalParse(f *testing.F) {
	const fp = "fuzz-fp"
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.journal")
	j, err := Create(path, fp)
	if err != nil {
		f.Fatal(err)
	}
	written := []Record{
		{Index: 0, Energy: 0.1, Status: StatusOK, Attempts: 1, Result: EncodeResult(fakeResult(0.1, 3))},
		{Index: 1, Energy: 0.2, Status: StatusDegraded, Attempts: 2, Escalations: []string{"nint 8->16"}, Result: EncodeResult(fakeResult(0.2, 2))},
		{Index: 2, Energy: 0.3, Status: StatusFailed, Attempts: 3, Error: "boom"},
	}
	for _, r := range written {
		if err := j.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-7])                                     // torn tail
	f.Add(bytes.Replace(good, []byte(`"ok"`), []byte(`"OK"`), 1)) // a record failing its CRC
	f.Add(good[:bytes.IndexByte(good, '\n')+1])                   // header only
	f.Add([]byte("00000000\t\n"))
	f.Add([]byte("not a journal\n"))

	canonical := make(map[string]bool)
	for _, r := range written {
		b, _ := json.Marshal(r)
		canonical[string(b)] = true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _, err := parseJournal(data, fp)
		if err != nil {
			if !errors.Is(err, ErrBadJournal) && !errors.Is(err, ErrFingerprintMismatch) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		for _, rec := range recs {
			in, _ := json.Marshal(rec)
			once, _ := json.Marshal(RecordOf(rec.Restore()))
			if canonical[string(in)] && !bytes.Equal(in, once) {
				t.Fatalf("a written record does not round-trip:\n in  %s\n out %s", in, once)
			}
			var r1 Record
			if err := json.Unmarshal(once, &r1); err != nil {
				t.Fatal(err)
			}
			twice, _ := json.Marshal(RecordOf(r1.Restore()))
			if !bytes.Equal(once, twice) {
				t.Fatalf("record does not round-trip after one trip:\n once  %s\n twice %s", once, twice)
			}
		}
	})
}
