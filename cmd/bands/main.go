// bands regenerates the band-structure figures:
//
//	-fig6   CBS of Al(100) and the (6,6) CNT overlaid on the conventional
//	        band structure (TSV data files, paper Fig. 6),
//	-fig11  CBS of the isolated (8,0) CNT, the 7-tube bundle and the
//	        crystalline bundle over an energy window (paper Fig. 11).
//
// Each output row holds E (eV, relative to EF), Re(k)*a/pi and Im(k)*a/pi,
// so the standard "complex band structure" plot (imaginary branch to the
// left, real branch to the right) can be drawn directly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"cbs"
	"cbs/internal/units"
)

func main() {
	fig6 := flag.Bool("fig6", false, "emit Fig. 6 data (Al(100) and (6,6) CNT)")
	fig11 := flag.Bool("fig11", false, "emit Fig. 11 data (CNT bundles)")
	nE := flag.Int("ne", 9, "energies in the scan window (paper: 200)")
	window := flag.Float64("window", 1.0, "energy half-window around EF (eV)")
	out := flag.String("out", "bands_data", "output directory")
	nxy := flag.Int("nxy", 14, "transverse grid points for tube systems")
	alN := flag.Int("al-n", 8, "grid points per direction for Al")
	flag.Parse()
	if !*fig6 && !*fig11 {
		*fig6 = true
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	vac := units.AngstromToBohr(3.5)

	if *fig6 {
		al, err := cbs.AlBulk100(1)
		if err != nil {
			log.Fatal(err)
		}
		emit(*out+"/fig6_al100", al, cbs.GridConfig{Nx: *alN, Ny: *alN, Nz: *alN, Nf: 4}, *nE, *window)
		cnt, err := cbs.CNT(6, 6, vac)
		if err != nil {
			log.Fatal(err)
		}
		emit(*out+"/fig6_cnt66", cnt, cbs.GridConfig{Nx: *nxy, Ny: *nxy, Nz: 8, Nf: 4}, *nE, *window)
	}
	if *fig11 {
		tube, err := cbs.CNT(8, 0, vac)
		if err != nil {
			log.Fatal(err)
		}
		emit(*out+"/fig11_cnt80", tube, cbs.GridConfig{Nx: *nxy, Ny: *nxy, Nz: 8, Nf: 4}, *nE, *window)
		b7, err := cbs.Bundle7(tube, vac)
		if err != nil {
			log.Fatal(err)
		}
		emit(*out+"/fig11_bundle7", b7, cbs.GridConfig{Nx: 2 * *nxy, Ny: 2 * *nxy, Nz: 8, Nf: 4}, *nE, *window)
		cr, err := cbs.CrystallineBundle(tube)
		if err != nil {
			log.Fatal(err)
		}
		emit(*out+"/fig11_crystalline", cr, cbs.GridConfig{Nx: *nxy, Ny: (*nxy * 7) / 4, Nz: 8, Nf: 4}, *nE, *window)
	}
}

func emit(prefix string, st *cbs.Structure, cfg cbs.GridConfig, nE int, window float64) {
	fmt.Printf("%s: %d atoms ...\n", st.Name, st.NumAtoms())
	model, err := cbs.NewModel(st, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ef, err := model.FermiLevel(3)
	if err != nil {
		log.Fatal(err)
	}
	a := model.CellLength()

	// Conventional bands (the red curves); cap the band count on large
	// cells so the sparse eigensolver path applies.
	nb := 0
	if model.N() > 1200 {
		nb = 40
	}
	ks, bandsE, err := model.Bands(9, nb)
	if err != nil {
		log.Fatal(err)
	}
	fb, err := os.Create(prefix + "_bands.tsv")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(fb, "# conventional band structure: k*a/pi, then E-EF (eV) per band\n")
	for i, k := range ks {
		fmt.Fprintf(fb, "%.6f", k*a/math.Pi)
		for _, e := range bandsE[i] {
			fmt.Fprintf(fb, "\t%.6f", units.HartreeToEV(e-ef))
		}
		fmt.Fprintln(fb)
	}
	fb.Close()

	// CBS scan (the black dots) on the durable sweep engine: a pathological
	// energy is retried with parameter escalation and, if it still fails,
	// marked failed on stderr — the figure keeps every energy that solved
	// instead of dying with an empty data file.
	opts := cbs.DefaultOptions()
	opts.Nint = 16
	opts.Nmm = 6
	opts.Nrh = 8
	opts.Parallel = cbs.Parallel{Top: 2}
	var es []float64
	for i := 0; i < nE; i++ {
		es = append(es, ef+units.EVToHartree(-window+2*window*float64(i)/math.Max(1, float64(nE-1))))
	}
	report, err := model.SweepCBS(context.Background(), es, opts, cbs.SweepConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fc, err := os.Create(prefix + "_cbs.tsv")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(fc, "# complex band structure: E-EF (eV), Re(k)*a/pi, Im(k)*a/pi, |lambda|, residual\n")
	for _, er := range report.Results {
		if er.Status == cbs.SweepFailed {
			fmt.Fprintf(os.Stderr, "  E-EF = %+.3f eV FAILED: %v\n", units.HartreeToEV(er.Energy-ef), er.Err)
			continue
		}
		for _, p := range er.Result.Pairs {
			lam := p.Lambda
			fmt.Fprintf(fc, "%.6f\t%.6f\t%.6f\t%.6f\t%.2e\n",
				units.HartreeToEV(er.Energy-ef),
				real(p.K)*a/math.Pi, imag(p.K)*a/math.Pi,
				mag(lam), p.Residual)
		}
	}
	fc.Close()
	if report.Failed > 0 {
		fmt.Printf("  wrote %s_bands.tsv and %s_cbs.tsv with %d of %d energies FAILED (EF = %.4f Ha)\n",
			prefix, prefix, report.Failed, len(es), ef)
	} else {
		fmt.Printf("  wrote %s_bands.tsv and %s_cbs.tsv (EF = %.4f Ha)\n", prefix, prefix, ef)
	}
}

func mag(z complex128) float64 { return math.Hypot(real(z), imag(z)) }
