package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cbs/internal/qep"
	"cbs/internal/tb"
)

// tbGoldenCase is one pinned tight-binding solve: the backend, the moment
// space, and per energy the operator-application count and the bits of
// every extracted eigenvalue (real then imaginary part, AllPairs order).
type tbGoldenCase struct {
	name     string
	backend  func() (*tb.Backend, error)
	nrh, nmm int
	points   []tbGoldenPoint
}

type tbGoldenPoint struct {
	e       float64
	matVecs int
	bits    []uint64
}

// TestTBBitsGolden pins the tight-binding solve bit for bit: every AllPairs
// eigenvalue and the MatVecs count of chain and slab backends at several
// energies. The block solver's layout or step set may change underneath,
// but not one bit of what it returns.
func TestTBBitsGolden(t *testing.T) {
	var got strings.Builder
	for _, tc := range tbGoldenCases {
		b, err := tc.backend()
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Nrh, opts.Nmm = tc.nrh, tc.nmm
		fmt.Fprintf(&got, "%s:\n", tc.name)
		for _, p := range tc.points {
			res, err := Solve(qep.NewBackend(b, p.e), opts)
			if err != nil {
				t.Fatalf("%s E=%g: %v", tc.name, p.e, err)
			}
			var bits []uint64
			for _, pair := range res.AllPairs {
				bits = append(bits, math.Float64bits(real(pair.Lambda)), math.Float64bits(imag(pair.Lambda)))
			}
			fmt.Fprintf(&got, "\t{e: %v, matVecs: %d, bits: %#v},\n", p.e, res.MatVecs, bits)
			if res.MatVecs != p.matVecs {
				t.Errorf("%s E=%g: MatVecs = %d, pinned %d", tc.name, p.e, res.MatVecs, p.matVecs)
			}
			if len(bits) != len(p.bits) {
				t.Errorf("%s E=%g: %d eigenvalues, pinned %d", tc.name, p.e, len(bits)/2, len(p.bits)/2)
				continue
			}
			for i := range bits {
				if bits[i] != p.bits[i] {
					t.Errorf("%s E=%g: eigenvalue %d bits %#x, pinned %#x", tc.name, p.e, i/2, bits[i], p.bits[i])
					break
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("computed table:\n%s", got.String())
	}
}

func tbChain(sites int) func() (*tb.Backend, error) {
	return func() (*tb.Backend, error) {
		return tb.NewChain(tb.ChainConfig{Sites: sites, Onsite: 0, Hopping: -1, A: float64(sites)})
	}
}

func tbSlab(nx, ny int) func() (*tb.Backend, error) {
	return func() (*tb.Backend, error) {
		return tb.NewSlab(tb.SlabConfig{Nx: nx, Ny: ny, Onsite: 0, Hopping: -1, A: 1})
	}
}

var tbGoldenCases = []tbGoldenCase{
	{name: "tb-chain nc=1", backend: tbChain(1), nrh: 1, nmm: 1, points: []tbGoldenPoint{
		{e: -1.3, matVecs: 128, bits: []uint64{0x3ff4ccccccccccca, 0xbca67055525c303f}},
		{e: 0.5, matVecs: 128, bits: []uint64{0xbfe0000000000000, 0x3ca5f374dbcc0d1b}},
		{e: 1.9, matVecs: 128, bits: []uint64{0xbffe666666666666, 0x3cb7e6f6b659b025}},
	}},
	{name: "tb-chain nc=4", backend: tbChain(4), nrh: 2, nmm: 2, points: []tbGoldenPoint{
		{e: -1.3, matVecs: 640, bits: []uint64{0xbfee765fd8adab9e, 0xbfd399a83855fe8c, 0xbfee765fd8adab99, 0x3fd399a83855fe88}},
		{e: 0.5, matVecs: 640, bits: []uint64{0x3fe1000000000013, 0xbfeb1c62db256515, 0x3fe1000000000032, 0x3feb1c62db256506}},
		{e: 1.9, matVecs: 640, bits: []uint64{0x3fd2f27bb2fec510, 0x3fee90c5cd0cba6c, 0x3fd2f27bb2fec52b, 0xbfee90c5cd0cba71}},
	}},
	{name: "tb-slab 8x7", backend: tbSlab(8, 7), nrh: 8, nmm: 7, points: []tbGoldenPoint{
		{e: -5.5, matVecs: 13380, bits: []uint64{0x40123c93012bbf13, 0xbf65fe31693c6e95, 0x4011913b771c7be7, 0x3f5549bae42d9006, 0x4011177e2eec5457, 0x3f63c21abb2abece, 0x4010b66cc68bfd9e, 0x3f2d35adfe98897f, 0x400f16975b3549b1, 0x3f400461eb81382e, 0x400df593a0cfa9f3, 0xbf113da6fe3b639e, 0x400090fa6b5df9e2, 0x3dd8564d54bced60, 0x400193a66296ba30, 0x3e06580b91653d24, 0x400cab188c783c48, 0x3f1015f8c498f149, 0x400bb1d6a2088af9, 0x3e8f26dd404db21c, 0x400a92ece1bff804, 0x3eb23fb9fcf90e82, 0x400392727478a075, 0x3e4dc37242ad7d44, 0x4005be40e15a402d, 0xbe99d075ccb995e3, 0x4006d0d0821e8582, 0xbe60e2d9c9f9012f, 0x4007c008ff35359c, 0x3ebefd2ded9ea153, 0x3ff91afc976b5b70, 0xbdebcc9efb8c2d38, 0x3ff697084b34ca54, 0x3dff4f3c068b08b7, 0x3fec5d9dce4cb7e5, 0x3fdd9f9c2e7269fc, 0x3fec5d9dcdc27783, 0xbfdd9f9c2d3a0b96, 0x3fe6aa37d0abb3cc, 0xbe36b4a258e4317e, 0x3fe464dcde25e978, 0x3e25ae27ec0c4d5e, 0x3fdee7ed531778d5, 0xbe3000293cc9496e, 0x3fdd20e215d86d1b, 0xbe73727837d1cf3f, 0x3fda249ac1df3dbe, 0xbebe3df7583ff95a, 0x3fd740f1af69184c, 0x3f1d5be6e8d5b39c, 0x3fd49ee24ee36846, 0xbf098a6782658f3e}},
		{e: -5.2, matVecs: 14024, bits: []uint64{0x4012c32cd306bf66, 0x3f748ae187e6ab3c, 0x4011d20045cc1d6a, 0x3f7e91a9974e9250, 0x40111ca640fa8ec1, 0x3f54fdbf8bfe2285, 0x4010631b4483f404, 0x3f593d4c392a5024, 0x40100779c1d27b61, 0x3f253cadb44fbe09, 0x400f2b979867deeb, 0x3f571a6622c212d9, 0x400eb78a44b6eafe, 0xbf14b57cdfbc892b, 0x400bb42d34e954d0, 0x3f103cf50fd17e09, 0x400b091b23eaba82, 0x3f3b4e1e4b26b09c, 0x4007e3279edde909, 0x3ed8d3a062677b5f, 0x4008ef65ea549a03, 0x3f182604b793fb62, 0x4008fbdcd34c02b0, 0xbefe9a8b0e9502b4, 0x4004fdb6c3e283dc, 0xbea54e172c2f270e, 0x40040634ac88750c, 0xbe3e97184401e38b, 0x4002e66c0020c67c, 0xbe5213734a5163ea, 0x4000951e2e0d4965, 0x3dee510b620f0999, 0x3ffcb9239105cc7a, 0x3e06b6a963412a04, 0x3ffa5714e0f6a650, 0xbddd37b10cc29669, 0x3fe790d10e8175ea, 0xbfe5a60535099605, 0x3fe790d10eb634b2, 0x3fe5a605354596a9, 0x3fed1f571b5c3e8c, 0xbfda8634c6b9e64c, 0x3fee809e1920829e, 0xbfd359837b1a6e98, 0x3fed1f571c8a47a3, 0x3fda8634cfb7ea6a, 0x3fee809e1818ef2d, 0x3fd3598381b93451, 0x3fe37020201ce5d3, 0x3e412b7934dd046e, 0x3fe1d345fe649d21, 0xbe06daf96af0921f, 0x3fdee00ac0369c04, 0x3e8a42dccf7407bc, 0x3fdb0f71d922e4ec, 0x3ee00f37fad7ebbd, 0x3fd983c2101735b0, 0x3ee742bd868ed336, 0x3fd7bfb5f7013894, 0x3f38684e47cde3db}},
		{e: -4.9, matVecs: 14854, bits: []uint64{0x4011d5fe5281ad03, 0x3f3437d940917630, 0x401137fa730eceac, 0xbf6c087027fc1caf, 0x40102520d5c8ff5d, 0xbf27e31569890224, 0x400f1aa7b38ee814, 0x3f35bfa1749bf8a6, 0x400dc095c8f9957a, 0x3f4412f2681648ee, 0x400d3497cdb95f91, 0x3f2c476d7480951a, 0x400c7bc72e4bd69e, 0xbee119523931d0f0, 0x400c12c0917059d1, 0xbeaedb1f2ddc8380, 0x4008ab0a6b8d8fda, 0x3f22971008397588, 0x4008591babd5bf5a, 0x3ef0b1134d97e473, 0x400523344e50280b, 0x3e8640eddebc2303, 0x40063bc62a3b08e0, 0xbec3b314239e90ee, 0x4006344ebd9ecb2b, 0x3ec5335637d03438, 0x40021ac4a77b6747, 0x3e4ea6b436b0a3d1, 0x40011246cedcc40d, 0xbe068e86a9138ea3, 0x3fffb2205bf98aaa, 0xbe11850561e3c7f1, 0x3fe2c404810ea691, 0x3fe9eb886d206cef, 0x3fe2c4047fcd97ad, 0xbfe9eb886dd7e059, 0x3ffa61230a59f85a, 0x3e17f1b948f6fba1, 0x3fe8528aa4e8b808, 0x3fe4cb71936c5d0c, 0x3fe9b3d1196c3712, 0x3fe3100c76873fd4, 0x3fe8528aa4a96635, 0xbfe4cb719577a27b, 0x3fe9b3d116c5c379, 0xbfe3100c740aa240, 0x3ff41947c9c3cd44, 0xbe080db105f1298e, 0x3fef425783b17906, 0xbfcb62135e9d233f, 0x3fef425787d7c4d1, 0x3fcb621353ab167f, 0x3fe9795dbb0cedba, 0x3e424b5415104c4a, 0x3fe368aded93aa5d, 0x3e52b08e8fbbb24d, 0x3fe0273a3669c014, 0x3e642acd7198299b, 0x3fddfd8d4ca1e021, 0x3e76d82d05f860cb, 0x3fdc4333baa3c78f, 0x3e99b2f4ac974ada, 0x3fd7b0bf55659da6, 0x3f1611a80a853a51}},
	}},
	{name: "tb-slab 3x2", backend: tbSlab(3, 2), nrh: 2, nmm: 3, points: []tbGoldenPoint{
		{e: -3.3, matVecs: 896, bits: []uint64{0x3fdc57d56a7d4dbc, 0x3fecb0cd56bc8ca2, 0x3ffb7c8227511d07, 0xbd0594903d3a06aa, 0x3fdc57d56a7d4ea4, 0xbfecb0cd56bc8cd1, 0x3fe2a071992cece2, 0x3d0885b1697a0600, 0x4003ef8e87610c7e, 0x3d9510c5806e5cc0, 0x400b6926341aaa7e, 0xbe4f16c636eeb68b}},
		{e: -1, matVecs: 896, bits: []uint64{0x3fec7785b5d1f688, 0xc0034d23496c9535, 0x3fec7785b5d1f628, 0x40034d23496c9523, 0x3ff60a0362db2130, 0xbce3156041ea5000, 0x3fc3214bf59674c5, 0xbfe20e6855261910, 0xbfe0118b86fa0cb9, 0xbce0e7799df80000, 0x3fc3214bf596743e, 0x3fe20e685526192c}},
		{e: 0.7, matVecs: 896, bits: []uint64{0xbfd2f04b26a289a4, 0xbff6093e32d5b9a2, 0x3ff2eea648f24e9b, 0xbcc2d7294a7ab1f6, 0xbfd2f04b26a28a38, 0x3ff6093e32d5b9e6, 0xbfe430376a6aa99d, 0xbcc393fde106c35c, 0x3fb7b2f8af3ee40f, 0x3fe2d059394393b7, 0x3fb7b2f8af3ee320, 0xbfe2d059394393e9}},
	}},
}
