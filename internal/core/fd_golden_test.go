package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cbs/internal/chaos"
	"cbs/internal/qep"
)

// fdGoldenCase is one pinned FD-grid solve: the injected faults, and the
// operator-application count, the recovery-ladder counts and the bits of
// every extracted eigenvalue (real then imaginary part, AllPairs order).
type fdGoldenCase struct {
	name  string
	chaos *chaos.Injector

	matVecs                         int
	breakdowns, restarts, fallbacks int
	dropped                         int
	bits                            []uint64
}

// TestFDBitsGolden pins the FD-grid solve bit for bit on a small Al(100)
// cell: a clean solve, one whose injected breakdowns climb to the restart
// and GMRES rungs of the recovery ladder, and one whose failed fallbacks
// drop (point, column) pairs, each serial and on two top blocks (so the
// ladder also runs on columns past the first of a block). The block layout,
// the ladder's solvers and the moment sums may change underneath, but not
// one bit of what the solve returns.
func TestFDBitsGolden(t *testing.T) {
	q := qep.NewBackend(smallAl(t, 8), fdGoldenEnergy)
	var got strings.Builder
	for _, tc := range fdGoldenCases {
		for _, par := range []Parallel{{Top: 1, Mid: 1}, {Top: 2, Mid: 2}} {
			opts := chaosOptions()
			opts.Chaos = tc.chaos
			opts.Parallel = par
			name := fmt.Sprintf("%s top=%d", tc.name, par.Top)
			res, err := Solve(q, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			d := res.Diagnostics
			var bits []uint64
			for _, pair := range res.AllPairs {
				bits = append(bits, math.Float64bits(real(pair.Lambda)), math.Float64bits(imag(pair.Lambda)))
			}
			fmt.Fprintf(&got, "%s: matVecs: %d, breakdowns: %d, restarts: %d, fallbacks: %d, dropped: %d,\n\tbits: %#v,\n",
				name, res.MatVecs, d.Breakdowns, d.Restarts, d.Fallbacks, len(d.DroppedPairs), bits)
			if res.MatVecs != tc.matVecs {
				t.Errorf("%s: MatVecs = %d, pinned %d", name, res.MatVecs, tc.matVecs)
			}
			if d.Breakdowns != tc.breakdowns || d.Restarts != tc.restarts || d.Fallbacks != tc.fallbacks || len(d.DroppedPairs) != tc.dropped {
				t.Errorf("%s: ladder breakdowns/restarts/fallbacks/dropped = %d/%d/%d/%d, pinned %d/%d/%d/%d", name,
					d.Breakdowns, d.Restarts, d.Fallbacks, len(d.DroppedPairs), tc.breakdowns, tc.restarts, tc.fallbacks, tc.dropped)
			}
			if len(bits) != len(tc.bits) {
				t.Errorf("%s: %d eigenvalues, pinned %d", name, len(bits)/2, len(tc.bits)/2)
				continue
			}
			for i := range bits {
				if bits[i] != tc.bits[i] {
					t.Errorf("%s: eigenvalue %d bits %#x, pinned %#x", name, i/2, bits[i], tc.bits[i])
					break
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("computed table:\n%s", got.String())
	}
}

// fdGoldenEnergy is the solved energy (hartree).
const fdGoldenEnergy = 0.1

var fdGoldenCases = []fdGoldenCase{
	{name: "clean", matVecs: 8020,
		bits: []uint64{0xc0c18451e7531cac, 0x409ce9d1f96fe778, 0x40a35fec49416790, 0xc06e8f6b4ee93604, 0xc090946015e1f9d1, 0x40849544c4bf5d23, 0xc08b174a17cc8a90, 0xc07cbaadd3b681cc, 0x4073cd1c97dba1a6, 0x405d5867e86d65c4, 0xc06e107a7ca54125, 0x4049efb826834288, 0xc04a407dc3036f4a, 0x406451b2e15336a4, 0x4057fd23fdb596d7, 0x403c2632eb16713b, 0x3fca6afdb414d9a8, 0xc04d509f93a37f0b, 0x4055b97428f88e35, 0xc02d6fcb26665073, 0x4045099ca06dd7a8, 0x4017219ed709e475, 0x403afbfe1c30bf1e, 0x4003e9db5e79e8d5, 0xbfd66fefb5551dd9, 0x3fedf7e01c8f36b7, 0xbfd66fac78bb29bb, 0xbfedf8299082a126}},
	{name: "restart+gmres", chaos: chaos.New(1, chaos.Config{Breakdown: 0.5, RestartBreakdown: 0.5}),
		matVecs: 8060, breakdowns: 18, restarts: 28, fallbacks: 3,
		bits: []uint64{0xc0c184d6683e3013, 0x409cefb6cc3f5352, 0x40a36016fb358f83, 0xc06e9219447a1014, 0xc0909463a1b0ab06, 0x40849550551424aa, 0xc08b174f9f3b347d, 0xc07cbacabfed0f81, 0x4073cd1f7c5a002f, 0x405d5883d19fc015, 0xc06e10789c683012, 0x4049efbe5a4ec08d, 0xc04a405c74904d71, 0x406451a5327c4190, 0x4057fd1e44a9e387, 0x403c263d56d04bab, 0x3fca7192aff2f8d9, 0xc04d5073cc1432fc, 0x4055b975c416b65a, 0xc02d700a10d1f134, 0x4045099f3d719198, 0x4017218e35fce560, 0x403afbe266d4b285, 0x4003e9d932d37a8a, 0xbfd66fefb47afca4, 0x3fedf7e01aeb6eb9, 0xbfd66fac7a4ba1bb, 0xbfedf82990f8a2e7}},
	{name: "dropped", chaos: chaos.New(1, chaos.Config{Breakdown: 0.5, RestartBreakdown: 1, FallbackFail: 1, Columns: []int{2}}),
		matVecs: 7548, breakdowns: 3, restarts: 6, fallbacks: 3, dropped: 3,
		bits: []uint64{0xc0927ae68d8f0613, 0x4095b80f562cb0e2, 0x408e16d5022134e6, 0xc07479563cf23f52, 0xc08b2eddc0e5f3b0, 0xc072507534503e30, 0xc0718e025f44d3b6, 0x404f993d2fdb5191, 0x4060e63ac43f6237, 0xc0690accdc9c1b90, 0xc054a01d767078d9, 0x40666acbedb4dcc4, 0x40531b170bc8f7ae, 0xc04715b79d3c15df, 0xc043861bd7afa072, 0xc04c39538b01efc9, 0x404d952aa52e80b7, 0x402b90046cdfa55d, 0x404281cf97ad26df, 0x3fccdefcc8b0764f, 0x3fcfa6fb32d4451f, 0x4036495df2451ae1, 0x3fe3c6d217cc6367, 0xc004d9a387058285, 0x3ffb05301fe934c7, 0xbfdee2296c23f80b, 0xbffba29782b3be20, 0x3fedea0ea2d3d7aa, 0xbfd671bc9c8c202f, 0x3fedf7f9bf2fd546, 0xbfd67092bafbf9ba, 0xbfedf922f2090b63, 0xbff240c7340ca320, 0xbfe1ba917da8859b}},
}
