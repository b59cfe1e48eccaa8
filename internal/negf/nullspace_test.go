package negf_test

import (
	"fmt"
	"math/cmplx"
	"testing"

	"cbs/internal/core"
	"cbs/internal/negf"
	"cbs/internal/tb"
	"cbs/internal/zlinalg"
)

// TestNullSpaceOfLeadCouplings pins the lambda -> 0 and lambda -> inf
// completions of the wave-matching bases, the null spaces of H- and H+
// that negf reads from the SVD's zero-singular-value columns of V. On
// every lead cell the SVD's V of both coupling blocks is orthonormal to
// 1e-13; a chain cell of s sites (couplings of rank 1, one mode per
// direction) completes each surface basis with its s-1 null vectors and
// needs no fill, and the slabs (couplings -1 times the identity) complete
// with none.
func TestNullSpaceOfLeadCouplings(t *testing.T) {
	type lead struct {
		name     string
		b        *tb.Backend
		e        float64
		opts     core.Options
		nNull    int
		fillFree bool
	}
	var leads []lead
	for _, sites := range []int{2, 3, 4} {
		opts := chainOptions()
		opts.Nmm = sites / opts.Nrh // the moment space may not exceed the cell
		leads = append(leads, lead{fmt.Sprintf("chain %d sites", sites), chainBackend(t, sites), 0.5, opts, 2 * (sites - 1), true})
	}
	for _, sl := range []struct {
		nx, ny, nrh, nmm int
		e                float64
	}{{8, 7, 8, 7, -5.2}, {3, 2, 2, 3, -3.3}} {
		b, err := tb.NewSlab(tb.SlabConfig{Nx: sl.nx, Ny: sl.ny, Onsite: 0, Hopping: -1, A: 1})
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Nrh, opts.Nmm = sl.nrh, sl.nmm
		leads = append(leads, lead{fmt.Sprintf("slab %dx%d", sl.nx, sl.ny), b, sl.e, opts, 0, false})
	}
	for _, l := range leads {
		_, hp, hm := negf.Blocks(l.b)
		for _, blk := range []struct {
			name string
			h    *zlinalg.Matrix
		}{{"H+", hp}, {"H-", hm}} {
			svd, err := zlinalg.SVD(blk.h)
			if err != nil {
				t.Fatal(err)
			}
			g := zlinalg.Mul(svd.V.ConjTranspose(), svd.V)
			for i := 0; i < g.Rows; i++ {
				for j := 0; j < g.Cols; j++ {
					want := complex128(0)
					if i == j {
						want = 1
					}
					if d := cmplx.Abs(g.At(i, j) - want); d > 1e-13 {
						t.Errorf("%s %s: (V†V)[%d][%d] off identity by %.2g", l.name, blk.name, i, j, d)
					}
				}
			}
		}
		leadsAt, err := negf.LeadSelfEnergies(l.b, solveAt(t, l.b, l.e, l.opts), negf.Options{})
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if leadsAt.NNull != l.nNull {
			t.Errorf("%s: %d null-space completion vectors, want %d", l.name, leadsAt.NNull, l.nNull)
		}
		if l.fillFree && leadsAt.NFill != 0 {
			t.Errorf("%s: %d orthogonal fills, want none", l.name, leadsAt.NFill)
		}
	}
}
