// Package modelflags is the one place the binaries' model flags are
// registered and turned into a cbs.Model. A fleet worker (cbsw) must build
// an operator whose descriptor equals its coordinator's (cbs), and cbsd
// serves the same systems, so the three share the flag names, defaults and
// the system switch instead of keeping copies in step.
package modelflags

import (
	"flag"
	"fmt"

	"cbs"
	"cbs/internal/units"
)

// Register adds the system, grid and tight-binding flags to fs and returns
// the builder to call after fs is parsed: a tight-binding backend for
// tb-chain / tb-slab, otherwise the named structure discretized on the FD
// grid (model.Op.Structure holds it). seedFlag is the doping seed's
// spelling, which differs between the binaries ("seed" in cbs and cbsw,
// "dope-seed" in cbsd).
func Register(fs *flag.FlagSet, seedFlag string) (build func() (*cbs.Model, error)) {
	sys := fs.String("system", "al", "system: al | cnt | bundle7 | crystalline | bncnt | tb-chain | tb-slab")
	n := fs.Int("n", 8, "CNT chiral index n")
	m := fs.Int("m", 0, "CNT chiral index m")
	cells := fs.Int("cells", 1, "cells stacked along z (supercell)")
	bnPairs := fs.Int("bn-pairs", 0, "BN dopant pairs (bncnt)")
	seed := fs.Int64(seedFlag, 2017, "doping seed")

	nxy := fs.Int("nxy", 16, "transverse grid points")
	nz := fs.Int("nz", 10, "axial grid points per cell")
	nf := fs.Int("nf", 4, "finite-difference half-width")

	tbSites := fs.Int("tb-sites", 4, "tb-chain: sites per principal layer (supercell)")
	tbNx := fs.Int("tb-nx", 2, "tb-slab: transverse sites along x")
	tbNy := fs.Int("tb-ny", 2, "tb-slab: transverse sites along y")
	tbOnsite := fs.Float64("tb-onsite", 0, "tight-binding onsite energy eps (hartree)")
	tbHop := fs.Float64("tb-hop", -1, "tight-binding nearest-neighbor hopping t (hartree)")
	tbA := fs.Float64("tb-a", 1, "tight-binding lattice constant a (bohr)")

	return func() (*cbs.Model, error) {
		switch *sys {
		case "tb-chain":
			return cbs.NewTBChain(cbs.TBChainConfig{Sites: *tbSites, Onsite: *tbOnsite, Hopping: *tbHop, A: *tbA})
		case "tb-slab":
			return cbs.NewTBSlab(cbs.TBSlabConfig{Nx: *tbNx, Ny: *tbNy, Onsite: *tbOnsite, Hopping: *tbHop, A: *tbA})
		}
		st, err := structure(*sys, *n, *m, *cells, *bnPairs, *seed)
		if err != nil {
			return nil, err
		}
		return cbs.NewModel(st, cbs.GridConfig{Nx: *nxy, Ny: *nxy, Nz: *nz * *cells, Nf: *nf})
	}
}

// structure builds the FD systems' atomic structure.
func structure(sys string, n, m, cells, bnPairs int, seed int64) (*cbs.Structure, error) {
	switch sys {
	case "al":
		return cbs.AlBulk100(cells)
	case "cnt", "bundle7", "crystalline", "bncnt":
		// Built from one (n, m) tube in a vacuum box, below.
	default:
		return nil, fmt.Errorf("unknown system %q", sys)
	}
	vac := units.AngstromToBohr(3.5)
	tube, err := cbs.CNT(n, m, vac)
	if err != nil {
		return nil, err
	}
	switch sys {
	case "cnt":
		if cells > 1 {
			return cbs.Repeat(tube, cells)
		}
		return tube, nil
	case "bundle7":
		return cbs.Bundle7(tube, vac)
	case "crystalline":
		return cbs.CrystallineBundle(tube)
	default: // bncnt
		super, err := cbs.Repeat(tube, cells)
		if err != nil {
			return nil, err
		}
		return cbs.BNDope(super, bnPairs, seed)
	}
}
