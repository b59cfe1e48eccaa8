package bandstructure

import (
	"math"
	"testing"
)

// floatBits returns the IEEE bits of every value of rows, row by row.
func floatBits(rows [][]float64) []uint64 {
	var bits []uint64
	for _, r := range rows {
		for _, v := range r {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

func checkBits(t *testing.T, name string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, pinned %d\n\tgot: %#v", name, len(got), len(want), got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: value %d = %v, pinned %v\n\tgot: %#v", name, i,
				math.Float64frombits(got[i]), math.Float64frombits(want[i]), got)
		}
	}
}

// TestFermiLevelBitsGolden pins the dense-path Fermi level of the 6x6x8 Al
// cell (N = 288, below denseFermiLimit) bit for bit at one and four k points.
func TestFermiLevelBitsGolden(t *testing.T) {
	op := smallAl(t)
	var got []uint64
	for _, nk := range []int{1, 4} {
		ef, err := FermiLevel(op, nk)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, math.Float64bits(ef))
	}
	checkBits(t, "FermiLevel", got, fermiGolden)
}

// TestLowestBandsBitsGolden pins the Chebyshev-filtered sparse bands (the
// FermiLevel path of cells above denseFermiLimit) of the same cell at two
// k points bit for bit.
func TestLowestBandsBitsGolden(t *testing.T) {
	op := smallAl(t)
	bands, err := LowestBands(op, UniformK(op, 2), 8)
	if err != nil {
		t.Fatal(err)
	}
	checkBits(t, "LowestBands", floatBits(bands), lowestBandsGolden)
}

var fermiGolden = []uint64{0x3fcc77f9a91d9524, 0x3fcc77f9a91d9524}

var lowestBandsGolden = []uint64{
	0xbfd578904dc0943d, 0xbfd56f42f5656b21, 0xbfd54252e0974a45, 0xbfd54252e0972d4b,
	0xbfb350ddafd20aba, 0x3fcc77f9b671dd11, 0x3fcc77f9ee7d3206, 0x3fd1bd9ac864cd9a,
	0xbfd572f4170d31e0, 0xbfd572f4170d319f, 0xbfd541ab44008b97, 0xbfd541ab44008b2d,
	0x3f90a5e69ce2afa7, 0x3f90a5e69e49f5e6, 0x3fd1c2be9b335e95, 0x3fd1c2d2ada98a8f,
}
