package negf_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"cbs/internal/negf"
	"cbs/internal/zlinalg"
)

// TestBlocksBitsGolden pins the dense H0, H+ and H- of the 8x7 transport
// slab bit for bit, signed zeros included: an FNV-1a hash over the IEEE
// bits of every element, real then imaginary part, H0 then H+ then H-.
func TestBlocksBitsGolden(t *testing.T) {
	h0, hp, hm := negf.Blocks(slabBackend(t))
	h := fnv.New64a()
	for _, m := range []*zlinalg.Matrix{h0, hp, hm} {
		for _, z := range m.Data {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(real(z))))
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(imag(z))))
		}
	}
	if got := h.Sum64(); got != blocksGolden {
		t.Errorf("dense slab blocks hash %#x, pinned %#x", got, blocksGolden)
	}
}

const blocksGolden uint64 = 0x8d4534b2886e0965
