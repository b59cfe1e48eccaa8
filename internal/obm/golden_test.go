package obm

import (
	"math"
	"testing"
)

// TestOBMBitsGolden pins one baseline solve on the 6x6x10 Al cell bit for
// bit: every annulus Bloch factor (real then imaginary part) and its QEP
// residual, in the order Solve returns them.
func TestOBMBitsGolden(t *testing.T) {
	res, err := Solve(smallAl(t), 0.2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, p := range res.Pairs {
		got = append(got, math.Float64bits(real(p.Lambda)), math.Float64bits(imag(p.Lambda)),
			math.Float64bits(p.Residual))
	}
	if len(got) != len(obmGolden) {
		t.Fatalf("%d values, pinned %d\n\tgot: %#v", len(got), len(obmGolden), got)
	}
	for i := range got {
		if got[i] != obmGolden[i] {
			t.Fatalf("value %d = %v, pinned %v\n\tgot: %#v", i,
				math.Float64frombits(got[i]), math.Float64frombits(obmGolden[i]), got)
		}
	}
}

var obmGolden = []uint64{
	0x3fef33a7efca2798, 0x3fcc69336525fc8e, 0x3dc9f4ef951d5607,
	0x3fef33a7efca2791, 0xbfcc69336525fca9, 0x3dc9f4ee736b2eef,
	0xbfe51013485c7f79, 0x3fe81733dc8be0ca, 0x3db456b6a5637704,
	0xbfe51013485c80e0, 0x3fe81733dc8be0b4, 0x3db41b9657675be9,
	0xbfe51013485c7f7b, 0xbfe81733dc8be0c1, 0x3db4569b7b5b0ac4,
	0xbfe510134852e672, 0xbfe81733dc8e519c, 0x3dcb392144fabaea,
}
