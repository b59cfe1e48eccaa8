package transport

import (
	"math"
	"math/cmplx"
	"testing"

	"cbs/internal/core"
)

// synth builds a synthetic scan result at energy e with the given complex
// wave vectors (a = 1 for simplicity).
func synth(e float64, ks ...complex128) *core.Result {
	r := &core.Result{Energy: e}
	for _, k := range ks {
		r.Pairs = append(r.Pairs, core.Eigenpair{
			Lambda: cmplx.Exp(complex(0, 1) * k),
			K:      k,
		})
	}
	return r
}

func TestDecayProfileClassification(t *testing.T) {
	results := []*core.Result{
		synth(0.0, complex(0.3, 0), complex(0.1, 0.5)),  // 1 propagating + 1 evanescent
		synth(0.1, complex(0.2, 0.4), complex(0, 0.25)), // gap: two evanescent
		synth(-0.1), // nothing found
	}
	prof := DecayProfile(results)
	if len(prof) != 3 {
		t.Fatalf("profile length %d", len(prof))
	}
	// Sorted by energy.
	if prof[0].E != -0.1 || prof[2].E != 0.1 {
		t.Fatalf("profile not sorted: %+v", prof)
	}
	// Energy 0.0: one open channel, and Beta still reports the coexisting
	// evanescent branch (Im k = 0.5) — the tunneling information NEGF needs.
	if prof[1].NPropagate != 1 || prof[1].NEvanescent != 1 || math.Abs(prof[1].Beta-0.5) > 1e-12 {
		t.Errorf("open-channel point wrong: %+v", prof[1])
	}
	// Energy 0.1: gap with min decay 0.25.
	if prof[2].NPropagate != 0 || math.Abs(prof[2].Beta-0.25) > 1e-12 {
		t.Errorf("gap point wrong: %+v", prof[2])
	}
	// Energy -0.1: nothing in the annulus, Beta stays 0.
	if prof[0].Beta != 0 || prof[0].NPropagate != 0 || prof[0].NEvanescent != 0 {
		t.Errorf("empty point wrong: %+v", prof[0])
	}
}

func TestDecayProfileConfigurableTol(t *testing.T) {
	// A state at |lambda| = e^{-1e-3}: evanescent under the default margin,
	// propagating under a loose 1e-2 margin.
	results := []*core.Result{synth(0.0, complex(0.4, 1e-3))}
	strict := DecayProfileWith(results, Options{})
	if strict[0].NPropagate != 0 || strict[0].NEvanescent != 1 || math.Abs(strict[0].Beta-1e-3) > 1e-15 {
		t.Errorf("default margin misclassified: %+v", strict[0])
	}
	loose := DecayProfileWith(results, Options{PropagatingTol: 1e-2})
	if loose[0].NPropagate != 1 || loose[0].NEvanescent != 0 || loose[0].Beta != 0 {
		t.Errorf("loose margin misclassified: %+v", loose[0])
	}
}

func TestTransmission(t *testing.T) {
	open := Point{NPropagate: 1}
	if Transmission(open, 10) != 1 {
		t.Error("open channel must transmit fully")
	}
	gap := Point{Beta: 0.2}
	want := math.Exp(-2 * 0.2 * 5)
	if got := Transmission(gap, 5); math.Abs(got-want) > 1e-15 {
		t.Errorf("T = %g, want %g", got, want)
	}
	// Thicker barrier transmits less.
	if Transmission(gap, 10) >= Transmission(gap, 5) {
		t.Error("transmission must decay with thickness")
	}
}

func TestComplexBandGapAndBranchPoints(t *testing.T) {
	// A gap from E=0.1..0.5 with a beta loop peaking at E=0.3.
	var results []*core.Result
	for i := 0; i <= 6; i++ {
		e := float64(i) * 0.1
		switch {
		case e < 0.05 || e > 0.55:
			results = append(results, synth(e, complex(0.3, 0))) // metallic
		default:
			beta := 0.4 - math.Abs(e-0.3) // tent peaking at 0.3
			results = append(results, synth(e, complex(0.0, beta)))
		}
	}
	prof := DecayProfile(results)
	eAt, betaMax, ok := ComplexBandGap(prof)
	if !ok {
		t.Fatal("gap not detected")
	}
	if math.Abs(eAt-0.3) > 1e-12 || math.Abs(betaMax-0.4) > 1e-12 {
		t.Errorf("gap peak at E=%g beta=%g, want 0.3/0.4", eAt, betaMax)
	}
	bps := BranchPoints(prof)
	if len(bps) != 1 || math.Abs(bps[0]-0.3) > 1e-12 {
		t.Errorf("branch points %v, want [0.3]", bps)
	}
}

func TestNoGapSystems(t *testing.T) {
	prof := DecayProfile([]*core.Result{synth(0, complex(0.3, 0))})
	if _, _, ok := ComplexBandGap(prof); ok {
		t.Error("metal must not report a complex band gap")
	}
	if bps := BranchPoints(prof); len(bps) != 0 {
		t.Errorf("metal reported branch points %v", bps)
	}
}
