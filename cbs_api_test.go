package cbs_test

import (
	"math"
	"math/cmplx"
	"testing"

	"cbs"
)

// TestPublicAPIPipeline exercises the documented quick-start flow end to
// end through the facade only.
func TestPublicAPIPipeline(t *testing.T) {
	st, err := cbs.AlBulk100(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumAtoms() != 4 {
		t.Fatalf("Al cell has %d atoms", st.NumAtoms())
	}
	model, err := cbs.NewModel(st, cbs.GridConfig{Nx: 6, Ny: 6, Nz: 8, Nf: 4})
	if err != nil {
		t.Fatal(err)
	}
	if model.N() != 6*6*8 {
		t.Fatalf("N = %d", model.N())
	}
	if model.CellLength() <= 0 {
		t.Fatal("cell length not positive")
	}
	ef, err := model.FermiLevel(3)
	if err != nil {
		t.Fatal(err)
	}
	ks, bands, err := model.Bands(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 3 || len(bands) != 3 || len(bands[0]) != 5 {
		t.Fatal("Bands shape wrong")
	}
	opts := cbs.DefaultOptions()
	opts.Nint = 8
	opts.Nmm = 4
	opts.Nrh = 6
	res, err := model.SolveCBS(ef, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Pairs {
		if p.Residual > opts.ResidualTol {
			t.Errorf("pair %v residual %g above filter", p.Lambda, p.Residual)
		}
		// K and Lambda must be consistent.
		a := model.CellLength()
		if d := cmplx.Abs(cmplx.Exp(complex(0, 1)*p.K*complex(a, 0)) - p.Lambda); d > 1e-10 {
			t.Errorf("K/Lambda inconsistent by %g", d)
		}
	}
	// Memory estimates: SS method must be far below the baseline.
	if model.CBSMemoryBytes(opts) >= model.OBMMemoryBytes() {
		t.Error("SS memory estimate not below OBM")
	}
}

func TestPublicAPIStructures(t *testing.T) {
	tube, err := cbs.CNT(8, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tube.NumAtoms() != 32 {
		t.Fatalf("(8,0) CNT has %d atoms", tube.NumAtoms())
	}
	super, err := cbs.Repeat(tube, 2)
	if err != nil {
		t.Fatal(err)
	}
	doped, err := cbs.BNDope(super, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if doped.CountSpecies("B") != 2 || doped.CountSpecies("N") != 2 {
		t.Fatal("doping counts wrong")
	}
	b7, err := cbs.Bundle7(tube, 6)
	if err != nil {
		t.Fatal(err)
	}
	if b7.NumAtoms() != 224 {
		t.Fatalf("bundle has %d atoms", b7.NumAtoms())
	}
	cr, err := cbs.CrystallineBundle(tube)
	if err != nil {
		t.Fatal(err)
	}
	if cr.NumAtoms() != 64 {
		t.Fatalf("crystalline bundle has %d atoms", cr.NumAtoms())
	}
}

func TestDefaultOptionsMatchPaper(t *testing.T) {
	o := cbs.DefaultOptions()
	if o.Nint != 32 || o.Nmm != 8 || o.Nrh != 16 {
		t.Errorf("defaults %d/%d/%d, paper uses 32/8/16", o.Nint, o.Nmm, o.Nrh)
	}
	if o.Delta != 1e-10 || o.LambdaMin != 0.5 || o.BiCGTol != 1e-10 {
		t.Error("tolerances differ from the paper's Sec. 4 settings")
	}
	ob := cbs.DefaultOBMOptions()
	if ob.Tol != 1e-10 || ob.LambdaMin != 0.5 {
		t.Error("OBM defaults differ from the paper")
	}
}

func TestSCFThroughFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("SCF is slow")
	}
	st, err := cbs.AlBulk100(1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := cbs.NewModel(st, cbs.GridConfig{Nx: 8, Ny: 8, Nz: 8, Nf: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.RunSCF(cbs.SCFOptions{MaxIter: 12, Tol: 1e-2, EigTol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 1 {
		t.Error("SCF did not iterate")
	}
	if math.IsNaN(res.DeltaV) {
		t.Error("SCF deltaV is NaN")
	}
}
