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
		{e: -1.3, matVecs: 640, bits: []uint64{0xbfee765fd8adab9e, 0xbfd399a83855fe8a, 0xbfee765fd8adab98, 0x3fd399a83855fe88}},
		{e: 0.5, matVecs: 640, bits: []uint64{0x3fe1000000000011, 0xbfeb1c62db256516, 0x3fe1000000000032, 0x3feb1c62db256508}},
		{e: 1.9, matVecs: 640, bits: []uint64{0x3fd2f27bb2fec512, 0x3fee90c5cd0cba68, 0x3fd2f27bb2fec52b, 0xbfee90c5cd0cba6d}},
	}},
	{name: "tb-slab 8x7", backend: tbSlab(8, 7), nrh: 8, nmm: 7, points: []tbGoldenPoint{
		{e: -5.5, matVecs: 13380, bits: []uint64{0x40123c92feb12d92, 0xbf65fe3070e09f1d, 0x4011913b78044ff9, 0x3f5549c071f82cdf, 0x4011177e2e250f1c, 0x3f63c21ff570eff8, 0x4010b66cc6083c1d, 0x3f2d35bb300b5d45, 0x400f16975bad06e0, 0x3f40045e3aeb7236, 0x400df593a0674dd4, 0xbf113da4f1ef6942, 0x400090fa6b5df9d3, 0x3dd855f5ef849360, 0x400193a66296ba5a, 0x3e0657bbffb83393, 0x400cab188c9aa0fe, 0x3f1015f739937c1b, 0x400bb1d6a1f9cc8c, 0x3e8f22bb542ed5b7, 0x400a92ece1bbb597, 0x3eb23f86a3be4e63, 0x400392727478a165, 0x3e4dc376caf222ef, 0x4005be40e15a399d, 0xbe99d06a88ca8d3c, 0x4006d0d0821e9429, 0xbe60e266b649e6f5, 0x4007c008ff35d552, 0x3ebefd2837065231, 0x3ff91afc976b5b8e, 0xbdebccde01c5168a, 0x3ff697084b34ca52, 0x3dff4f4de7bcda01, 0x3fec5d9dce4cb82a, 0x3fdd9f9c2e7269e8, 0x3fec5d9dcdc27779, 0xbfdd9f9c2d3a0bf5, 0x3fe6aa37d0abb498, 0xbe36b4a833ec188d, 0x3fe464dcde25e902, 0x3e25ae26ebfc1e1c, 0x3fdee7ed53177590, 0xbe30002f7be6e313, 0x3fdd20e215d89017, 0xbe7372793b3d608f, 0x3fda249ac1e813bf, 0xbebe3de23f5bfe21, 0x3fd740f1af702ad7, 0x3f1d5be613562b1a, 0x3fd49ee250c95398, 0xbf098a190617c7a2}},
		{e: -5.2, matVecs: 14024, bits: []uint64{0x4012c32cd61894ec, 0x3f748aed4c88b8e2, 0x4011d200471c52b6, 0x3f7e91a3d42f48e9, 0x40111ca640be3283, 0x3f54fd9bc7cb28ba, 0x4010631b4411956a, 0x3f593d492aaa972b, 0x40100779c16396a1, 0x3f253c9e1313774c, 0x400f2b97986706f5, 0x3f571a5ee504f0ca, 0x400eb78a44976c73, 0xbf14b573f1fb1246, 0x400bb42d35963fbb, 0x3f103cff1d1f1851, 0x400b091b243f9114, 0x3f3b4e1aac2ec749, 0x4007e3279eded8b1, 0x3ed8d395f2f30f17, 0x4008ef65ea764f20, 0x3f1825ff4f02729f, 0x4008fbdcd3427189, 0xbefe9a9df18c3f4e, 0x4004fdb6c3e2a447, 0xbea54e0a62dafe38, 0x40040634ac88727d, 0xbe3e96ee3f22f255, 0x4002e66c0020c7fa, 0xbe5213680e58114e, 0x4000951e2e0d48df, 0x3dee50f14a7c7668, 0x3ffcb9239105cc8b, 0x3e06b69c5f55a06b, 0x3ffa5714e0f6a659, 0xbddd3654199f03b3, 0x3fe790d10e8175d4, 0xbfe5a605350995f8, 0x3fe790d10eb6350f, 0x3fe5a605354596a2, 0x3fed1f571b5c3f5b, 0xbfda8634c6b9e6d0, 0x3fee809e192082a1, 0xbfd359837b1a6f90, 0x3fed1f571c8a486a, 0x3fda8634cfb7ea2a, 0x3fee809e1818ef7a, 0x3fd3598381b933d7, 0x3fe37020201ce556, 0x3e412b755b10df86, 0x3fe1d345fe649992, 0xbe06dab28c5fee1f, 0x3fdee00ac036d0ed, 0x3e8a42d75e123017, 0x3fdb0f71d91e1149, 0x3ee00f32b36ad9a8, 0x3fd983c210200123, 0x3ee742ba0f03a4d3, 0x3fd7bfb5f6c19871, 0x3f386849f5eb942c}},
		{e: -4.9, matVecs: 14854, bits: []uint64{0x4011d5fe5502cc41, 0x3f3437de4de25d78, 0x401137fa71f637cf, 0xbf6c086cb783e920, 0x40102520d5a8d7da, 0xbf27e324f92a5ffe, 0x400f1aa7b2295c72, 0x3f35bfb40d31991d, 0x400dc095c80e42cb, 0x3f4413022e880afd, 0x400d3497cd2ce96f, 0x3f2c4774cabc8030, 0x400c7bc72e31b76c, 0xbee1192a21ba18d4, 0x400c12c09175e2b1, 0xbeaed9dd795b5351, 0x4008ab0a6b695e9b, 0x3f2297181bfb8eb2, 0x4008591babd4dfd5, 0x3ef0b121163d1a68, 0x400523344e50147c, 0x3e86410541323c4e, 0x40063bc62a3da461, 0xbec3b32f6755d828, 0x4006344ebda0e78e, 0x3ec5336f9bc5e837, 0x40021ac4a77b6745, 0x3e4ea6ac3fd9172d, 0x40011246cedcc3cc, 0xbe068e58b130b3f8, 0x3fffb2205bf98b2c, 0xbe1184e05bc13d37, 0x3fe2c404810ea641, 0x3fe9eb886d206cd4, 0x3fe2c4047fcd9738, 0xbfe9eb886dd7e023, 0x3ffa61230a59f7e9, 0x3e17f1ac5f9d9491, 0x3fe8528aa4e8b73a, 0x3fe4cb71936c5ece, 0x3fe9b3d1196c357e, 0x3fe3100c7687419e, 0x3fe8528aa4a9668f, 0xbfe4cb719577a37c, 0x3fe9b3d116c5c1c7, 0xbfe3100c740aa39d, 0x3ff41947c9c3cd5c, 0xbe080d85c6e81fb9, 0x3fef425783b179fe, 0xbfcb62135e9d1fe4, 0x3fef425787d7c2e7, 0x3fcb621353ab1a0f, 0x3fe9795dbb0ceb6d, 0x3e424b4919326b02, 0x3fe368aded93b2a0, 0x3e52b08078ef1b17, 0x3fe0273a3669b360, 0x3e642ad01f88acc6, 0x3fddfd8d4ca23a37, 0x3e76d81e7d82bceb, 0x3fdc4333ba9d6a6a, 0x3e99b2c701a2a49a, 0x3fd7b0bf54fee79f, 0x3f1611ada6c1596d}},
	}},
	{name: "tb-slab 3x2", backend: tbSlab(3, 2), nrh: 2, nmm: 3, points: []tbGoldenPoint{
		{e: -3.3, matVecs: 896, bits: []uint64{0x3fdc57d56a7d4dd4, 0x3fecb0cd56bc8caa, 0x3ffb7c8227511d06, 0xbcfad6df858d2dde, 0x3fdc57d56a7d4ed0, 0xbfecb0cd56bc8cd0, 0x3fe2a071992cecca, 0x3d00647aee8c8800, 0x4003ef8e8761186e, 0x3d93e2146117dac0, 0x400b69263351c036, 0xbe33d29b4472f286}},
		{e: -1, matVecs: 896, bits: []uint64{0x3fec7785b5d1f688, 0xc0034d23496c9533, 0x3fec7785b5d1f631, 0x40034d23496c951d, 0x3ff60a0362db2128, 0xbcea47575f68a000, 0x3fc3214bf59674d9, 0xbfe20e6855261916, 0xbfe0118b86fa0cbd, 0xbce1b77350900000, 0x3fc3214bf596742d, 0x3fe20e6855261923}},
		{e: 0.7, matVecs: 896, bits: []uint64{0xbfd2f04b26a289c4, 0xbff6093e32d5b9a2, 0x3ff2eea648f24ea5, 0xbcda79318c69c854, 0xbfd2f04b26a28a31, 0x3ff6093e32d5b9e0, 0xbfe430376a6aa999, 0xbc71a0e41ef918d8, 0x3fb7b2f8af3ee41a, 0x3fe2d059394393b0, 0x3fb7b2f8af3ee328, 0xbfe2d059394393e2}},
	}},
}
