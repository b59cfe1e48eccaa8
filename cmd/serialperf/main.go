// serialperf regenerates the paper's serial performance comparison:
//
//	Fig. 4(a)  runtime, OBM baseline vs QEP/Sakurai-Sugiura,
//	Fig. 4(b)  memory usage of the two methods,
//	Table 1    cost breakdown of the proposed method,
//	Fig. 5     BiCG residual histories at every quadrature point (-conv).
//
// The paper's systems (Al(100) at 20^3 and a (6,6) CNT at 72x72x12) are run
// at configurable reduced grids; the comparison targets the *shape* (who
// wins, how the gap grows with N), not the absolute Fortran/MKL numbers
// (see DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"cbs"
	"cbs/internal/units"
)

type system struct {
	name  string
	model *cbs.Model
	ef    float64
}

func main() {
	alN := flag.Int("al-n", 10, "grid points per direction for Al(100) (paper: 20)")
	cntNxy := flag.Int("cnt-nxy", 14, "transverse grid for the (6,6) CNT (paper: 72)")
	cntNz := flag.Int("cnt-nz", 8, "axial grid for the (6,6) CNT (paper: 12)")
	conv := flag.String("conv", "", "write Fig. 5 residual histories to this TSV file")
	skipOBM := flag.Bool("skip-obm", false, "skip the baseline (for quick checks)")
	flag.Parse()

	systems := []system{
		build("Al(100)", mustAl(), *alN, *alN, *alN),
		build("(6,6) CNT", mustCNT(6, 6), *cntNxy, *cntNxy, *cntNz),
	}

	for _, s := range systems {
		fmt.Printf("==================== %s (N = %d) ====================\n", s.name, s.model.N())
		opts := cbs.DefaultOptions()
		opts.Nrh = 16
		opts.TrackHistories = *conv != ""

		// ---- QEP/SS: Table 1 breakdown + Fig. 4a runtime ----------------
		tBuild := time.Now()
		// (The Hamiltonian is already built; rebuild to time the "read
		// matrix data" analog.)
		res, err := s.model.SolveCBS(s.ef, opts)
		if err != nil {
			log.Fatal(err)
		}
		ssTotal := time.Since(tBuild)
		fmt.Printf("Table 1 (QEP/SS breakdown):\n")
		fmt.Printf("  read matrix data        %12v\n", res.Timings.Setup.Round(time.Millisecond))
		fmt.Printf("  solve linear equations  %12v\n", res.Timings.SolveLinear.Round(time.Millisecond))
		fmt.Printf("  extract eigenpairs      %12v\n", res.Timings.Extract.Round(time.Millisecond))
		fmt.Printf("  states found: %d (rank %d)\n", len(res.Pairs), res.Rank)

		// ---- OBM baseline ------------------------------------------------
		var obmTime time.Duration
		if !*skipOBM {
			t0 := time.Now()
			ob, err := s.model.SolveOBM(s.ef, cbs.DefaultOBMOptions())
			if err != nil {
				log.Fatal(err)
			}
			obmTime = time.Since(t0)
			fmt.Printf("OBM breakdown:\n")
			fmt.Printf("  matrix inversion        %12v\n", ob.Timings.Inversion.Round(time.Millisecond))
			fmt.Printf("  solve eigenvalue prob.  %12v\n", ob.Timings.Eigen.Round(time.Millisecond))
			fmt.Printf("  states found: %d\n", len(ob.Pairs))
		}

		// ---- Fig. 4a / 4b summary ----------------------------------------
		ssMem := s.model.CBSMemoryBytes(opts)
		obmMem := s.model.OBMMemoryBytes()
		fmt.Printf("Fig. 4(a) runtime:   OBM %v   QEP/SS %v", obmTime.Round(time.Millisecond), ssTotal.Round(time.Millisecond))
		if obmTime > 0 {
			fmt.Printf("   speedup %.1fx", float64(obmTime)/float64(ssTotal))
		}
		fmt.Println()
		fmt.Printf("Fig. 4(b) memory:    OBM %s   QEP/SS %s   ratio %.0fx\n\n",
			human(obmMem), human(ssMem), float64(obmMem)/float64(ssMem))

		// ---- Fig. 5 histories ---------------------------------------------
		if *conv != "" {
			writeHistories(*conv+"."+sanitize(s.name)+".tsv", res)
		}
	}
}

func build(name string, st *cbs.Structure, nx, ny, nz int) system {
	model, err := cbs.NewModel(st, cbs.GridConfig{Nx: nx, Ny: ny, Nz: nz, Nf: 4})
	if err != nil {
		log.Fatal(err)
	}
	ef, err := model.FermiLevel(3)
	if err != nil {
		log.Fatal(err)
	}
	return system{name: name, model: model, ef: ef}
}

func mustAl() *cbs.Structure {
	st, err := cbs.AlBulk100(1)
	if err != nil {
		log.Fatal(err)
	}
	return st
}

func mustCNT(n, m int) *cbs.Structure {
	st, err := cbs.CNT(n, m, units.AngstromToBohr(3.5))
	if err != nil {
		log.Fatal(err)
	}
	return st
}

func writeHistories(path string, res *cbs.Result) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	fmt.Fprintf(f, "# Fig. 5: BiCG relative residual vs iteration at each quadrature point z_j\n")
	fmt.Fprintf(f, "# columns: iteration, then one column per quadrature point\n")
	maxLen := 0
	for _, p := range res.Points {
		if len(p.History) > maxLen {
			maxLen = len(p.History)
		}
	}
	for it := 0; it < maxLen; it++ {
		fmt.Fprintf(f, "%d", it)
		for _, p := range res.Points {
			if it < len(p.History) {
				fmt.Fprintf(f, "\t%.3e", p.History[it])
			} else {
				fmt.Fprintf(f, "\t")
			}
		}
		fmt.Fprintln(f)
	}
	fmt.Printf("Fig. 5 histories written to %s\n", path)
}

func human(b int64) string {
	switch {
	case b > 1<<30:
		return fmt.Sprintf("%.2f GB", float64(b)/(1<<30))
	case b > 1<<20:
		return fmt.Sprintf("%.2f MB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	}
}

func sanitize(s string) string {
	out := []rune{}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
