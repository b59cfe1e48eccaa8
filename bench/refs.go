package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"cbs/internal/core"
)

// refsJSON holds the pinned energies and the seed-1 reference eigenvalue
// sets. Model.FermiLevel(4) costs about 50 s on the Al 10x10x10 grid (ten
// solves), so the workloads never recompute it: E_AL is a committed constant
// with its provenance, and the references were written once by
// `go run ./bench -update-refs` at the commit the file names.
//
//go:embed testdata/refs.json
var refsJSON []byte

// references is the schema of testdata/refs.json.
type references struct {
	// EAl is the seed commit's Model.FermiLevel(4) for AlBulk100(1) on the
	// 10x10x10, Nf=4 grid, in hartree.
	EAl           float64 `json:"e_al_hartree"`
	EAlProvenance string  `json:"e_al_provenance"`
	// SolveAl is the lambda set of solve_al at seed 1; SweepAl the sets of
	// sweep_al's 16 energies at seed 1, in energy order. Each lambda is
	// [re, im].
	SolveAl [][2]float64   `json:"solve_al_seed1"`
	SweepAl [][][2]float64 `json:"sweep_al_seed1"`
}

var refs = mustLoadRefs()

func mustLoadRefs() references {
	var r references
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		panic(fmt.Sprintf("bench/testdata/refs.json: %v", err))
	}
	return r
}

func toComplex(ls [][2]float64) []complex128 {
	out := make([]complex128, len(ls))
	for i, l := range ls {
		out[i] = complex(l[0], l[1])
	}
	return out
}

func fromResult(res *core.Result) [][2]float64 {
	out := make([][2]float64, len(res.Pairs))
	for i, p := range res.Pairs {
		out[i] = [2]float64{real(p.Lambda), imag(p.Lambda)}
	}
	return out
}

// solveRef is the committed lambda set for solve_al, or nil when the run's
// inputs are not the reference inputs (other seeds, smoke sizes).
func solveRef(cfg runConfig) []complex128 {
	if cfg.seed != 1 || cfg.smoke {
		return nil
	}
	return toComplex(refs.SolveAl)
}

// sweepRef is the same for energy i of sweep_al.
func sweepRef(cfg runConfig, i int) []complex128 {
	if cfg.seed != 1 || cfg.smoke || i >= len(refs.SweepAl) {
		return nil
	}
	return toComplex(refs.SweepAl[i])
}

// writeRefs replaces the reference sets in path, keeping the pinned energy.
func writeRefs(path string, solve *core.Result, sweep []*core.Result) error {
	r := refs
	r.SolveAl = fromResult(solve)
	r.SweepAl = nil
	for _, res := range sweep {
		r.SweepAl = append(r.SweepAl, fromResult(res))
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
