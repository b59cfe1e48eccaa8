// Package transport post-processes complex-band-structure scans into the
// quantities that motivate the paper's introduction: tunneling decay
// constants (the evanescent states' imaginary wave vectors govern electron
// tunneling through barriers and junctions), WKB-style transmission
// estimates, and branch points -- the energies where two evanescent
// branches merge, whose migration under bundling is the physics observation
// of Fig. 11.
package transport

import (
	"math"
	"sort"

	"cbs/internal/core"
)

// DefaultPropagatingTol is the default classification margin: a Bloch
// factor with ||lambda| - 1| below it counts as a propagating state.
// Exported so downstream consumers of the classification (internal/negf's
// lead-mode separation) share one convention.
const DefaultPropagatingTol = 1e-4

// Options tunes the decay-profile classification.
type Options struct {
	// PropagatingTol is the ||lambda| - 1| margin below which a state is
	// propagating; 0 means DefaultPropagatingTol. Solves with loose
	// residual targets put numerically-on-shell states slightly off the
	// unit circle, and a barrier NEGF run may want a tighter margin so
	// slow evanescent branches are not misread as open channels.
	PropagatingTol float64
}

func (o Options) tol() float64 {
	if o.PropagatingTol > 0 {
		return o.PropagatingTol
	}
	return DefaultPropagatingTol
}

// Point is the decay profile at one energy.
type Point struct {
	E           float64 // energy (hartree)
	Beta        float64 // smallest evanescent decay constant min |Im k| (1/bohr); 0 if no evanescent states
	NPropagate  int     // propagating channels
	NEvanescent int     // evanescent states in the annulus
}

// DecayProfile reduces a CBS energy scan to the slowest-decay constant
// beta(E) with the default classification margin: the dominant tunneling
// channel. Beta reports the slowest evanescent decay even at energies that
// also carry propagating channels — NEGF needs the tunneling branch under
// an open band, and NPropagate already tells ballistic energies apart.
func DecayProfile(results []*core.Result) []Point {
	return DecayProfileWith(results, Options{})
}

// DecayProfileWith is DecayProfile with explicit classification options.
func DecayProfileWith(results []*core.Result, o Options) []Point {
	tol := o.tol()
	out := make([]Point, 0, len(results))
	for _, r := range results {
		p := Point{E: r.Energy}
		minBeta := math.Inf(1)
		for _, pair := range r.Pairs {
			mag := math.Hypot(real(pair.Lambda), imag(pair.Lambda))
			if math.Abs(mag-1) < tol {
				p.NPropagate++
				continue
			}
			p.NEvanescent++
			if beta := math.Abs(imag(pair.K)); beta < minBeta {
				minBeta = beta
			}
		}
		if !math.IsInf(minBeta, 1) {
			p.Beta = minBeta
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].E < out[j].E })
	return out
}

// Transmission estimates the WKB tunneling transmission through a barrier
// of the given thickness (bohr) at one profile point: T ~ exp(-2*beta*d);
// 1 for energies with open channels.
func Transmission(p Point, thickness float64) float64 {
	if p.NPropagate > 0 || p.Beta == 0 {
		return 1
	}
	return math.Exp(-2 * p.Beta * thickness)
}

// ComplexBandGap returns the maximum of beta(E) over the gap region (the
// "loop height" of the imaginary band connecting valence and conduction
// bands) and the energy where it is attained. Returns ok=false when the
// profile has no evanescent-only region.
func ComplexBandGap(profile []Point) (eAt, betaMax float64, ok bool) {
	for _, p := range profile {
		if p.NPropagate > 0 || p.Beta == 0 {
			continue
		}
		if p.Beta > betaMax {
			betaMax = p.Beta
			eAt = p.E
			ok = true
		}
	}
	return eAt, betaMax, ok
}

// BranchPoints finds the interior local maxima of beta(E): the energies
// where two evanescent branches merge (dE/dk = 0 on the imaginary band, the
// red dot of Fig. 11a). Plateau maxima report their left edge.
func BranchPoints(profile []Point) []float64 {
	var out []float64
	for i := 1; i+1 < len(profile); i++ {
		p := profile[i]
		if p.NPropagate > 0 || p.Beta == 0 {
			continue
		}
		if profile[i-1].Beta < p.Beta && p.Beta >= profile[i+1].Beta {
			out = append(out, p.E)
		}
	}
	return out
}
