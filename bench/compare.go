package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"

	"cbs"
)

// runSet is the untraced rows of one workload in one document.
type runSet []row

func (s runSet) values(metric string) []float64 {
	var out []float64
	for _, r := range s {
		if v, ok := r.metric(metric); ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// inputs identifies what the rows measured: seeds, run length, and the
// clients and workers actually used. Sets with different inputs are not
// comparable.
func (s runSet) inputs() [][4]float64 {
	var out [][4]float64
	for _, r := range s {
		out = append(out, [4]float64{float64(r.Seed), r.Seconds, float64(r.Clients), float64(r.Workers)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func (s runSet) failed() (failed, attempted int) {
	for _, r := range s {
		failed, attempted = failed+r.Failed, attempted+r.Attempted
	}
	return failed, attempted
}

func untraced(d *document) map[string]runSet {
	sets := map[string]runSet{}
	for _, r := range d.Rows {
		if !r.Traced && !r.Smoke {
			sets[r.Workload] = append(sets[r.Workload], r)
		}
	}
	return sets
}

// spread is the run-to-run spread of a set of values as a share of their
// median: the contract's quartile distance from four runs up, the full
// range below that.
func spread(values []float64) float64 {
	if len(values) >= 4 {
		return quartileSpread(values)
	}
	s := sample(values)
	if len(s) < 2 || s.median() == 0 {
		return 0
	}
	return (s.max() - s.min()) / math.Abs(s.median())
}

// verdict is the comparison of one end-to-end metric on one workload.
type verdict struct {
	text       string
	regression bool
}

// judge compares the change's runs with the parent's under the metric's
// bound. ok is false when there is nothing to print: the medians agree
// within the bound and the spread resolves it.
func judge(def *metricDef, parent, change []float64) (v verdict, ok bool) {
	pm, cm := sample(parent).median(), sample(change).median()
	worse := worseBy(def, pm, cm)
	sp := math.Max(spread(parent), spread(change))
	detail := fmt.Sprintf("%.6g -> %.6g %s (%+.1f %%, bound %.0f %%, spread %.1f %%, n=%d/%d)",
		pm, cm, def.Unit, -100*worse, 100*def.Bound, 100*sp, len(parent), len(change))
	if sp > def.Bound {
		// Too noisy to call unchanged; a verdict needs every run of one
		// side to beat every run of the other.
		allBetter, allWorse := true, true
		for _, c := range change {
			for _, p := range parent {
				if worseBy(def, p, c) >= 0 {
					allBetter = false
				}
				if worseBy(def, p, c) <= def.Bound {
					allWorse = false
				}
			}
		}
		switch {
		case allBetter:
			return verdict{text: "better in every run  " + detail}, true
		case allWorse:
			return verdict{text: "REGRESSION in every run  " + detail, regression: true}, true
		}
		return verdict{text: "unresolved (spread exceeds bound)  " + detail}, true
	}
	switch {
	case worse > def.Bound:
		return verdict{text: "REGRESSION  " + detail, regression: true}, true
	case -worse > def.Bound:
		return verdict{text: "better  " + detail}, true
	}
	return verdict{}, false
}

// compareFiles prints, per workload, only the end-to-end deltas beyond each
// metric's bound. It refuses documents measured on different machines or
// inputs. Exit status 1 means a regression or a correctness failure.
func compareFiles(w io.Writer, parentPath, changePath string) int {
	parent, err := readDocument(parentPath)
	if err != nil {
		return fatal(err)
	}
	change, err := readDocument(changePath)
	if err != nil {
		return fatal(err)
	}
	if !parent.Host.sameMachine(change.Host) {
		return fatal(fmt.Errorf("host descriptors differ, refusing to compare:\n  %s: %+v\n  %s: %+v",
			parentPath, parent.Host, changePath, change.Host))
	}
	fmt.Fprintf(w, "parent %s (%s)  change %s (%s)\n", parentPath, parent.Host.GitSHA, changePath, change.Host.GitSHA)
	ps, cs := untraced(parent), untraced(change)
	status := 0
	for _, wl := range workloads {
		p, c := ps[wl.name], cs[wl.name]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		if !reflect.DeepEqual(p.inputs(), c.inputs()) {
			return fatal(fmt.Errorf("%s: the documents ran different seeds, run lengths, clients or workers, refusing to compare", wl.name))
		}
		fmt.Fprintf(w, "%s\n", wl.name)
		quiet := true
		for i := range endToEnd {
			def := &endToEnd[i]
			if v, ok := judge(def, p.values(def.Name), c.values(def.Name)); ok {
				fmt.Fprintf(w, "  %-20s %s\n", def.Name, v.text)
				quiet = false
				if v.regression {
					status = 1
				}
			}
		}
		if f, a := c.failed(); f > 0 {
			fmt.Fprintf(w, "  %-20s FAILED %d of %d operations\n", "failed_frac", f, a)
			quiet, status = false, 1
		}
		if quiet {
			fmt.Fprintf(w, "  every end-to-end metric within its bound\n")
		}
	}
	return status
}

// repeatCheckAll is the benchmark's self-test: every workload twice on the
// same code, each end-to-end metric of the second run within its bound of
// the first, and no failed operation.
func repeatCheckAll(ctx context.Context, cfg runConfig) int {
	status := 0
	for i := range workloads {
		w := &workloads[i]
		var rows [2]row
		for k := range rows {
			r, _, err := runWorkload(ctx, w, cfg)
			if err != nil {
				return fatal(err)
			}
			rows[k] = r
			if r.Failed > 0 {
				printRow(os.Stdout, &r)
				status = 1
			}
		}
		fmt.Printf("%s\n", w.name)
		for j := range endToEnd {
			def := &endToEnd[j]
			a, _ := rows[0].metric(def.Name)
			b, _ := rows[1].metric(def.Name)
			diff := math.Abs(a.Value-b.Value) / math.Min(a.Value, b.Value)
			mark := "ok"
			if diff > def.Bound {
				mark, status = "DISAGREE", 1
			}
			fmt.Printf("  %-20s %12.6g %12.6g %-5s %5.1f %% of bound %.0f %%  %s\n",
				def.Name, a.Value, b.Value, def.Unit, 100*diff, 100*def.Bound, mark)
		}
	}
	return status
}

// updateReferences recomputes the seed-1 lambda sets of solve_al and
// sweep_al and rewrites bench/testdata/refs.json; run it from the repo root.
func updateReferences(ctx context.Context, cfg runConfig) error {
	cfg.seed, cfg.smoke = 1, false
	al, _, err := buildAl(ctx, cfg)
	if err != nil {
		return err
	}
	solve, err := al.SolveCBSContext(ctx, solveEnergyAl(cfg), solveOptsAl(cfg))
	if err != nil {
		return err
	}
	rep, err := al.SweepCBS(ctx, sweepEnergiesAl(cfg), sweepOptsAl(), cbs.SweepConfig{Workers: loadThreads()})
	if err != nil {
		return err
	}
	if rep.OK != len(rep.Results) {
		return fmt.Errorf("reference sweep: %d of %d energies OK", rep.OK, len(rep.Results))
	}
	return writeRefs("bench/testdata/refs.json", solve, rep.Completed())
}
