package framework

import (
	"reflect"
	"testing"
)

// TestEncodeListRoundTrip: lists encode sorted and deterministic, and decode
// back to the same items regardless of input order.
func TestEncodeListRoundTrip(t *testing.T) {
	a := EncodeList([]string{"zeta", "alpha", "mid"})
	b := EncodeList([]string{"mid", "zeta", "alpha"})
	if a != b {
		t.Errorf("EncodeList is order-sensitive: %q vs %q", a, b)
	}
	if a != "alpha\nmid\nzeta\n" {
		t.Errorf("EncodeList blob = %q, want sorted newline-terminated lines", a)
	}
	got := DecodeList(a)
	if !reflect.DeepEqual(got, []string{"alpha", "mid", "zeta"}) {
		t.Errorf("DecodeList = %v", got)
	}
	// EncodeList must not mutate its argument (it sorts a copy).
	in := []string{"b", "a"}
	EncodeList(in)
	if in[0] != "b" {
		t.Errorf("EncodeList sorted the caller's slice: %v", in)
	}
}

func TestEncodeListEmpty(t *testing.T) {
	if blob := EncodeList(nil); blob != "" {
		t.Errorf("empty list blob = %q", blob)
	}
	if items := DecodeList(""); len(items) != 0 {
		t.Errorf("DecodeList(\"\") = %v", items)
	}
}

// TestEncodeTableRoundTrip: tables encode as sorted key\tvalue lines and
// decode back exactly; values may contain spaces (positions do).
func TestEncodeTableRoundTrip(t *testing.T) {
	in := map[string]string{
		"bicg.block-breakdown": "Breakdown block.go:103",
		"bicg.breakdown":       "Breakdown linsolve.go:126",
		"journal.ckpt":         "CheckpointFault journal.go:88",
	}
	blob := EncodeTable(in)
	want := "bicg.block-breakdown\tBreakdown block.go:103\n" +
		"bicg.breakdown\tBreakdown linsolve.go:126\n" +
		"journal.ckpt\tCheckpointFault journal.go:88\n"
	if blob != want {
		t.Errorf("EncodeTable blob = %q, want %q", blob, want)
	}
	if got := DecodeTable(blob); !reflect.DeepEqual(got, in) {
		t.Errorf("DecodeTable = %v, want %v", got, in)
	}
}

func TestEncodeTableEmpty(t *testing.T) {
	if blob := EncodeTable(nil); blob != "" {
		t.Errorf("empty table blob = %q", blob)
	}
	if m := DecodeTable(""); len(m) != 0 {
		t.Errorf("DecodeTable(\"\") = %v", m)
	}
}

// TestDecodeSet: sets are lists by encoding; DecodeSet inverts EncodeSet's
// membership view (EncodeSet itself is exercised through the analyzers,
// whose fact blobs flow through EncodeList — the wire format is shared).
func TestDecodeSet(t *testing.T) {
	set := DecodeSet(EncodeList([]string{"f.Key", "g.Key"}))
	if !set["f.Key"] || !set["g.Key"] || set["absent"] {
		t.Errorf("DecodeSet membership wrong: %v", set)
	}
}
