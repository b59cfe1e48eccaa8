// Package wire is the binary framing of the reliable TCP link (comm.RConn)
// under the fleet: the network sibling of internal/journal's CRC-framed
// JSONL. A frame is
//
//	[4]  uint32 LE  payload length
//	[1]  kind
//	[1]  src        link-local identity of the sender
//	[1]  dst        link-local identity of the receiver
//	[1]  flags      (reserved: written zero, anything else is corrupt)
//	[8]  uint64 LE  per-link sequence number
//	[n]  payload
//	[4]  uint32 LE  CRC-32C over header+payload
//
// The CRC is Castagnoli, the same polynomial the journals use, computed
// over the header and payload together so a bit flip in the length or
// sequence fields is as detectable as one in the payload. A frame that
// fails the check surfaces as ErrFrameCorrupt and the reader must treat
// the stream as unusable from that byte on (lengths can no longer be
// trusted); the reliable links respond by resetting the connection and
// resynchronizing from their sequence numbers.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame kinds of the reliable links. Application protocols ride inside
// KindData payloads; the remaining kinds are link control.
const (
	// KindHello opens (or reopens) a link: the payload is the sender's
	// next expected receive sequence, so the peer knows where to resume
	// retransmission after a reconnect.
	KindHello byte = 1
	// KindData carries one application payload at Frame.Seq.
	KindData byte = 2
	// KindNak asks the peer to retransmit its outbox from Frame.Seq.
	KindNak byte = 3
	// KindLost answers a Nak for a sequence the outbox no longer holds:
	// the link cannot be healed and both ends must surface ErrPeerLost.
	KindLost byte = 4
	// KindAck answers a Nak for a sequence the sender has not produced
	// yet: there is nothing to retransmit, and Frame.Seq (the sender's
	// next send sequence) says so. It carries no data; any intact frame
	// proves the link alive, which is all the asker needs to know.
	KindAck byte = 5
)

const (
	headerLen = 16
	crcLen    = 4
)

// ErrFrameCorrupt means a frame failed its CRC or framing check: the
// stream cannot be trusted past this point and the link must reset.
var ErrFrameCorrupt = errors.New("wire: corrupt frame")

// crcTable is Castagnoli CRC-32, matching the journal framing.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame is one message of a reliable link.
type Frame struct {
	Kind     byte
	Src, Dst byte
	Seq      uint64
	Payload  []byte
}

// Append serializes f onto buf and returns the extended slice.
func Append(buf []byte, f Frame) []byte {
	start := len(buf)
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(f.Payload)))
	hdr[4] = f.Kind
	hdr[5] = f.Src
	hdr[6] = f.Dst
	hdr[7] = 0
	binary.LittleEndian.PutUint64(hdr[8:16], f.Seq)
	buf = append(buf, hdr[:]...)
	buf = append(buf, f.Payload...)
	crc := crc32.Checksum(buf[start:], crcTable)
	var tail [crcLen]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	return append(buf, tail[:]...)
}

// Write serializes f to w in a single Write call (one frame, one syscall,
// so a concurrent writer on the same conn cannot interleave mid-frame).
func Write(w io.Writer, f Frame) error {
	buf := Append(make([]byte, 0, headerLen+len(f.Payload)+crcLen), f)
	_, err := w.Write(buf)
	return err
}

// Read decodes the next frame from r. maxPayload bounds the length field
// before any allocation, so a corrupt length cannot balloon memory; frames
// failing the bound, the CRC or the reserved-zero flags byte return
// ErrFrameCorrupt, so every accepted frame is exactly what Append writes.
// Transport errors from r (timeouts, closed conns) pass through unwrapped.
func Read(r io.Reader, maxPayload int) (Frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if int64(n) > int64(maxPayload) {
		return Frame{}, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrFrameCorrupt, n, maxPayload)
	}
	body := make([]byte, int(n)+crcLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, err
	}
	crc := crc32.Checksum(hdr[:], crcTable)
	crc = crc32.Update(crc, crcTable, body[:n])
	if binary.LittleEndian.Uint32(body[n:]) != crc {
		return Frame{}, fmt.Errorf("%w: crc mismatch", ErrFrameCorrupt)
	}
	if hdr[7] != 0 {
		return Frame{}, fmt.Errorf("%w: reserved flags byte %#x", ErrFrameCorrupt, hdr[7])
	}
	return Frame{
		Kind:    hdr[4],
		Src:     hdr[5],
		Dst:     hdr[6],
		Seq:     binary.LittleEndian.Uint64(hdr[8:16]),
		Payload: body[:n:n],
	}, nil
}
