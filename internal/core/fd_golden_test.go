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
		bits: []uint64{0xc0c18451e74748aa, 0x409ce9d1f9bbb4ee, 0x40a35fec493e0ca5, 0xc06e8f6b4f1c9c94, 0xc090946015e19cac, 0x40849544c4bf4b58, 0xc08b174a17cc9ad0, 0xc07cbaadd3b65284, 0x4073cd1c97dbe6ba, 0x405d5867e86e19ea, 0xc06e107a7ca56cd5, 0x4049efb82683032a, 0xc04a407dc304eb90, 0x406451b2e151e3a1, 0x4057fd23fdb4d617, 0x403c2632eb1849e4, 0x3fca6afdb90c0ac8, 0xc04d509f93a1b86a, 0x4055b97428f83fcb, 0xc02d6fcb2667baad, 0x4045099ca06de212, 0x4017219ed705d7fc, 0x403afbfe1c2e4668, 0x4003e9db5e8d7df5, 0xbfd66fefb5552be1, 0x3fedf7e01c8ebbad, 0xbfd66fac78bc6680, 0xbfedf8299082480e}},
	{name: "restart+gmres", chaos: chaos.New(1, chaos.Config{Breakdown: 0.5, RestartBreakdown: 0.5}),
		matVecs: 8060, breakdowns: 18, restarts: 28, fallbacks: 3,
		bits: []uint64{0xc0c184d66838601f, 0x409cefb6cc40134a, 0x40a36016fb3406aa, 0xc06e9219447ea250, 0xc0909463a1b02ddb, 0x4084955055134e2a, 0xc08b174f9f3b0358, 0xc07cbacabfec726c, 0x4073cd1f7c5a4d86, 0x405d5883d19e8c7b, 0xc06e10789c688f3a, 0x4049efbe5a5061b0, 0xc04a405c74968cb2, 0x406451a5327d113b, 0x4057fd1e44aa77e1, 0x403c263d56d369e2, 0x3fca7192b1995618, 0xc04d5073cc1af34a, 0x4055b975c4168063, 0xc02d700a10d14ebe, 0x4045099f3d70ffbc, 0x4017218e35fcc91e, 0x403afbe266d82d18, 0x4003e9d932e72916, 0xbfd66fefb479ed68, 0x3fedf7e01aed6320, 0xbfd66fac7a4b9a11, 0xbfedf82990f8426d}},
	{name: "dropped", chaos: chaos.New(1, chaos.Config{Breakdown: 0.5, RestartBreakdown: 1, FallbackFail: 1, Columns: []int{2}}),
		matVecs: 7548, breakdowns: 3, restarts: 6, fallbacks: 3, dropped: 3,
		bits: []uint64{0xc0927ae68d510b37, 0x4095b80f56baf846, 0x408e16d501ed2cd3, 0xc07479563de656ce, 0xc08b2eddc0433f9d, 0xc07250753420ccd8, 0xc0718e025ff8cbff, 0x404f993d2b06d945, 0x4060e63ac361369c, 0xc0690accdb6269e4, 0xc054a01d7307f747, 0x40666acbedc2185f, 0x40531b170c3d3d1e, 0xc04715b79d283919, 0xc043861bdb02c213, 0xc04c39538bfad9a7, 0x404d952aa44a6bd1, 0x402b90046bc8a57c, 0x404281cf97ab9211, 0x3fccdefcc87274d1, 0x3fcfa6f9a89b5b14, 0x4036495def31acb9, 0x3fe3c6d2140c7ce1, 0xc004d9a38693b93a, 0x3ffb05302052446c, 0xbfdee2296aee2448, 0xbffba2978220942c, 0x3fedea0ea3910940, 0xbfd671bc9c8cd44a, 0x3fedf7f9bf2f69f2, 0xbfd67092bafb7eca, 0xbfedf922f208bfb8, 0xbff240c73737a0c7, 0xbfe1ba917babc01a}},
}
