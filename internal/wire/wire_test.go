package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

// TestFrameRoundTrip: every header field and the payload survive
// Write/Read unchanged, including empty payloads and max sequence numbers.
func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: KindHello, Src: 1, Dst: 2, Seq: 0, Payload: nil},
		{Kind: KindData, Src: 0, Dst: 255, Seq: 1, Payload: []byte("halo slab")},
		{Kind: KindNak, Src: 7, Dst: 7, Seq: math.MaxUint64, Payload: []byte{0}},
		{Kind: KindLost, Src: 255, Dst: 0, Seq: 1 << 40, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{Kind: KindAck, Src: 2, Dst: 1, Seq: 12, Payload: nil},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := Write(&buf, f); err != nil {
			t.Fatalf("write %+v: %v", f, err)
		}
	}
	for i, want := range frames {
		got, err := Read(&buf, 1<<16)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.Src != want.Src || got.Dst != want.Dst || got.Seq != want.Seq {
			t.Errorf("frame %d header: got %+v, want %+v", i, got, want)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("frame %d payload: %d bytes, want %d", i, len(got.Payload), len(want.Payload))
		}
	}
	if buf.Len() != 0 {
		t.Errorf("%d trailing bytes after reading all frames", buf.Len())
	}
}

// TestFrameCorruption: a bit flip anywhere in the frame — length, kind,
// sequence, payload, or CRC — surfaces as ErrFrameCorrupt, never as a
// silently wrong frame. (A length flip may also read as a short stream;
// both are failures, neither is silent.)
func TestFrameCorruption(t *testing.T) {
	base := Append(nil, Frame{Kind: KindData, Src: 3, Dst: 4, Seq: 99, Payload: []byte("payload bytes")})
	for bit := 0; bit < len(base)*8; bit++ {
		corrupt := append([]byte(nil), base...)
		corrupt[bit/8] ^= 1 << (bit % 8)
		f, err := Read(bytes.NewReader(corrupt), 1<<16)
		if err == nil {
			t.Fatalf("bit flip at %d accepted: %+v", bit, f)
		}
		// Flips in the length field can leave the reader waiting for bytes
		// that never come (io errors); everything else must be typed.
		if bit >= 32 && !errors.Is(err, ErrFrameCorrupt) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("bit flip at %d: error not typed: %v", bit, err)
		}
	}
}

// TestFrameLengthBound: a frame whose length field exceeds maxPayload is
// refused before any allocation, typed ErrFrameCorrupt.
func TestFrameLengthBound(t *testing.T) {
	big := Append(nil, Frame{Kind: KindData, Payload: make([]byte, 2048)})
	if _, err := Read(bytes.NewReader(big), 1024); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversized frame: got %v, want ErrFrameCorrupt", err)
	}
	// At the bound it must pass.
	if _, err := Read(bytes.NewReader(big), 2048); err != nil {
		t.Fatalf("frame at the bound refused: %v", err)
	}
}

// TestFrameTruncation: a stream cut mid-frame (crash or half-close) reads
// as an io error, not a corrupt-but-accepted frame.
func TestFrameTruncation(t *testing.T) {
	full := Append(nil, Frame{Kind: KindData, Seq: 5, Payload: []byte("truncate me")})
	for cut := 0; cut < len(full); cut++ {
		_, err := Read(bytes.NewReader(full[:cut]), 1<<16)
		if err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d: %v, want io error", cut, err)
		}
	}
}

// FuzzWireRead feeds arbitrary bytes to the frame decoder, the first code
// to touch anything a TCP peer sends: it must never panic, must refuse a
// length above maxPayload before reading (let alone allocating) the body,
// and must accept only byte strings Append itself would have produced.
func FuzzWireRead(f *testing.F) {
	const maxPayload = 1 << 12
	for _, fr := range []Frame{
		{Kind: KindHello, Src: 255, Dst: 0, Seq: 0},
		{Kind: KindData, Src: 3, Dst: 0, Seq: 17, Payload: []byte(`{"type":"result","index":2}`)},
		{Kind: KindNak, Src: 0, Dst: 3, Seq: 18},
		{Kind: KindAck, Src: 3, Dst: 0, Seq: 18},
		{Kind: KindLost, Src: 0, Dst: 3, Seq: 1},
	} {
		f.Add(Append(nil, fr))
	}
	two := Append(Append(nil, Frame{Kind: KindData, Seq: 1, Payload: []byte("a")}), Frame{Kind: KindData, Seq: 2})
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Add([]byte("not a frame not a frame not a frame"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		fr, err := Read(r, maxPayload)
		consumed := len(data) - r.Len()
		if err != nil {
			if len(data) >= headerLen && binary.LittleEndian.Uint32(data) > maxPayload {
				if !errors.Is(err, ErrFrameCorrupt) || consumed != headerLen {
					t.Fatalf("oversized length field: err %v after %d bytes, want ErrFrameCorrupt at the header", err, consumed)
				}
			}
			return
		}
		if len(fr.Payload) > maxPayload {
			t.Fatalf("accepted a %d-byte payload past the %d limit", len(fr.Payload), maxPayload)
		}
		if again := Append(nil, fr); !bytes.Equal(again, data[:consumed]) {
			t.Fatalf("accepted frame does not re-encode to the bytes consumed:\n in  %x\n out %x", data[:consumed], again)
		}
	})
}
