// Tunneling analysis: the application the paper's introduction motivates.
// The evanescent complex bands of a semiconductor govern how electrons
// tunnel through it; this example scans the CBS of a (8,0) carbon nanotube
// across its band gap, extracts the decay-constant profile beta(E) (the
// complex-band loop), locates the branch point, and prints WKB transmission
// estimates for barriers of several lengths.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"cbs"
	"cbs/internal/units"
)

func main() {
	nE := flag.Int("ne", 11, "energies across the gap window")
	window := flag.Float64("window", 0.8, "energy half-window around EF (eV)")
	nxy := flag.Int("nxy", 16, "transverse grid points")
	flag.Parse()

	tube, err := cbs.CNT(8, 0, units.AngstromToBohr(3.5))
	if err != nil {
		log.Fatal(err)
	}
	model, err := cbs.NewModel(tube, cbs.GridConfig{Nx: *nxy, Ny: *nxy, Nz: 8, Nf: 4})
	if err != nil {
		log.Fatal(err)
	}
	ef, err := model.FermiLevel(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: N = %d, EF = %.4f hartree\n", tube.Name, model.N(), ef)

	opts := cbs.DefaultOptions()
	opts.Nint = 16
	opts.Nmm = 6
	opts.Nrh = 8
	var energies []float64
	for i := 0; i < *nE; i++ {
		f := float64(i) / float64(*nE-1)
		energies = append(energies, ef+units.EVToHartree(-*window+2**window*f))
	}
	report, err := model.SweepCBS(context.Background(), energies, opts, cbs.SweepConfig{})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range report.Failures() {
		log.Printf("E-EF = %.3f eV failed: %v", units.HartreeToEV(f.Energy-ef), f.Err)
	}

	profile := cbs.DecayProfile(report.Completed())
	fmt.Printf("\n%-12s %-10s %-14s %s\n", "E-EF (eV)", "#open", "beta (1/A)", "T(d=10A)")
	d10 := units.AngstromToBohr(10)
	for _, p := range profile {
		beta := p.Beta / units.AngstromPerBohr // 1/bohr -> 1/angstrom... (1/bohr)*(bohr/A)
		fmt.Printf("%-12.3f %-10d %-14.4f %.3e\n",
			units.HartreeToEV(p.E-ef), p.NPropagate, beta, cbs.Transmission(p, d10))
	}
	if e, b, ok := cbs.ComplexBandGap(profile); ok {
		fmt.Printf("\ncomplex-band loop peak: beta = %.4f 1/A at E-EF = %.3f eV\n",
			b/units.AngstromPerBohr, units.HartreeToEV(e-ef))
	}
	for _, bp := range cbs.BranchPoints(profile) {
		fmt.Printf("branch point near E-EF = %.3f eV\n", units.HartreeToEV(bp-ef))
	}
}
