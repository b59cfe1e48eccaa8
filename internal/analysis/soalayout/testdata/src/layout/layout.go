// Package layout is the soalayout fixture: every banned construct next to
// the clean idiom that must stay silent.
package layout

import "cbs/internal/soa"

// literal constructs a Block by hand instead of via NewBlock.
func literal(n, nb int) *soa.Block[float64] {
	b := soa.Block[float64]{ // want `soa\.Block composite literal`
		Re: make([]float64, n*nb),
		Im: make([]float64, n*nb),
	}
	return &b
}

// headerWrite rebinds the planes of an existing block.
func headerWrite(b *soa.Block[float64], n int) {
	b.Re = make([]float64, n) // want `write to the \.Re plane header`
	b.Im = b.Im[:n]           // want `write to the \.Im plane header`
}

// headerAppend grows a plane behind the owner's back.
func headerAppend(b *soa.Block[float64], x float64) {
	b.Re = append(b.Re, x) // want `write to the \.Re plane header`
}

// pointerLiteral takes the address of a literal directly — the pointer
// spelling must not slip past the composite-literal rule.
func pointerLiteral(n int) *soa.Block[float64] {
	return &soa.Block[float64]{ // want `soa\.Block composite literal`
		Re: make([]float64, n),
		Im: make([]float64, n),
	}
}

// packageBlock smuggles a literal in at package level, outside any
// function body (the GenDecl walk).
var packageBlock = soa.Block[float64]{} // want `soa\.Block composite literal`

// cleanConstruction is the sanctioned idiom: NewBlock, element writes,
// Reserve for reshaping, shims outside kernels.
func cleanConstruction(n, nb int, src []complex128) *soa.Block[float64] {
	b := soa.NewBlock[float64](n, nb)
	soa.Pack(b, src)
	b.Re[0] = 1
	b.Im[0] = -1
	b.Reserve(n, nb)
	return b
}

// hotShim converts inside an annotated kernel.
//
//cbs:hotpath
func hotShim(b *soa.Block[float64], scratch []complex128) {
	soa.Unpack(scratch, b) // want `soa\.Unpack inside a hot-path kernel`
	for i := range scratch {
		scratch[i] *= 2
	}
	soa.Pack(b, scratch) // want `soa\.Pack inside a hot-path kernel`
}

// hotReconstruct re-materializes complex elements from the planes inside a
// kernel (AoS arithmetic in disguise).
//
//cbs:hotpath
func hotReconstruct(b *soa.Block[float64]) complex128 {
	var s complex128
	for i := range b.Re {
		s += complex(b.Re[i], b.Im[i]) // want `complex\(\) rebuilt from indexed SoA planes`
	}
	return s
}

// hotClean is a correct kernel: split-plane arithmetic throughout, with a
// final scalar reconstruction from plain locals (allowed).
//
//cbs:hotpath
func hotClean(b *soa.Block[float64]) complex128 {
	var re, im float64
	for i := range b.Re {
		re += b.Re[i]
		im += b.Im[i]
	}
	return complex(re, im)
}

// coldShim is the same conversion outside a kernel: allowed.
func coldShim(b *soa.Block[float64], scratch []complex128) {
	soa.Unpack(scratch, b)
	_ = complex(b.Re[0], b.Im[0])
}
