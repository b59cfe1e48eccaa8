// scaling regenerates the paper's parallel performance study:
//
//	-fig8    strong scaling of the three hierarchy layers, small system
//	         ((8,0) CNT, 32 atoms) -- measured with goroutines up to the
//	         host's cores AND replayed on the Oakforest-PACS machine model
//	         at the paper's process counts,
//	-fig9    the same for the medium system (BN-doped, 1024 atoms;
//	         model-only at full scale, measured at reduced scale),
//	-fig10   middle+bottom layers for the large system (10240 atoms,
//	         model-only),
//	-table2  the in-node OpenMP x domain split of 1000 BiCG iterations.
//
// Measured parts run a genuinely parallel solve (goroutine pools over
// right-hand sides and quadrature points, channel-based message passing in
// the domain layer); the machine model extrapolates the identical schedule
// to node counts this host does not have (see DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"cbs"
	"cbs/internal/cluster"
	"cbs/internal/units"
)

func main() {
	fig8 := flag.Bool("fig8", false, "small-system layer scaling")
	fig9 := flag.Bool("fig9", false, "medium-system layer scaling")
	fig10 := flag.Bool("fig10", false, "large-system scaling (model only)")
	table2 := flag.Bool("table2", false, "in-node split study")
	nxy := flag.Int("nxy", 18, "transverse grid for measured runs")
	nz := flag.Int("nz", 16, "axial grid for measured runs")
	flag.Parse()
	if !*fig8 && !*fig9 && !*fig10 && !*table2 {
		*fig8 = true
		*table2 = true
	}

	tube, err := cbs.CNT(8, 0, units.AngstromToBohr(3.2))
	if err != nil {
		log.Fatal(err)
	}
	machine := cluster.OakforestPACS()

	if *fig8 {
		fmt.Println("==== Fig. 8: (8,0) CNT, 32 atoms ====")
		model := mustModel(tube, cbs.GridConfig{Nx: *nxy, Ny: *nxy, Nz: *nz, Nf: 4})
		measuredLayers(model)
		modelLayers(machine, cluster.FromOperator(model.Op, 32, 64, 3000),
			cluster.Hierarchy{Top: 1, Mid: 2, Ndm: 1, Threads: 68},
			[]int{1, 2, 4, 8, 16, 32, 64}, []int{1, 2, 4, 8, 16, 32}, []int{1, 2, 4, 8, 16})
	}
	if *fig9 {
		fmt.Println("==== Fig. 9: BN-doped (8,0) CNT, 1024 atoms (model at paper scale) ====")
		super, err := cbs.Repeat(tube, 4) // measured stand-in: 128 atoms
		if err != nil {
			log.Fatal(err)
		}
		doped, err := cbs.BNDope(super, 6, 2017)
		if err != nil {
			log.Fatal(err)
		}
		model := mustModel(doped, cbs.GridConfig{Nx: *nxy, Ny: *nxy, Nz: 4 * *nz, Nf: 4})
		measuredLayers(model)
		w := cluster.FromOperator(model.Op, 32, 16, 3000)
		// Extrapolate the workload to the paper's 72x72x640 grid.
		scale := 32.0 / 4.0
		w.N = int(float64(w.N) * scale)
		w.NzPlanes = int(float64(w.NzPlanes) * scale)
		w.FlopsPerApply *= scale
		w.ProjAllreduceBytes = int(float64(w.ProjAllreduceBytes) * scale)
		modelLayers(machine, w,
			cluster.Hierarchy{Top: 1, Mid: 32, Ndm: 4, Threads: 17},
			[]int{1, 2, 4, 8, 16}, []int{1, 2, 4, 8, 16, 32}, []int{1, 2, 4, 8, 16})
	}
	if *fig10 {
		fmt.Println("==== Fig. 10: BN-doped (8,0) CNT, 10240 atoms (model only) ====")
		model := mustModel(tube, cbs.GridConfig{Nx: *nxy, Ny: *nxy, Nz: *nz, Nf: 4})
		w := cluster.FromOperator(model.Op, 32, 16, 6000)
		scale := 320.0
		w.N = int(float64(w.N) * scale)
		w.NzPlanes = int(float64(w.NzPlanes) * scale)
		w.FlopsPerApply *= scale
		w.ProjAllreduceBytes = int(float64(w.ProjAllreduceBytes) * scale)
		base := cluster.Hierarchy{Top: 16, Mid: 32, Ndm: 2, Threads: 4}
		for _, layer := range []string{"mid", "ndm"} {
			counts := []int{1, 2, 4, 8, 16, 32}
			if layer == "ndm" {
				counts = []int{2, 4, 8, 16, 32, 64}
			}
			pts, err := machine.LayerScaling(w, base, layer, counts)
			if err != nil {
				log.Fatal(err)
			}
			printModelScaling(layer, pts)
		}
	}
	if *table2 {
		fmt.Println("==== Table 2: 64 cores split threads x Ndm, 1000 BiCG iterations (model) ====")
		model := mustModel(tube, cbs.GridConfig{Nx: *nxy, Ny: *nxy, Nz: *nz, Nf: 4})
		for _, sys := range []struct {
			name  string
			scale float64
		}{{"32 atoms", 1}, {"1024 atoms", 32}, {"10240 atoms", 320}} {
			w := cluster.FromOperator(model.Op, 32, 16, 1000)
			w.N = int(float64(w.N) * sys.scale)
			w.NzPlanes = int(float64(w.NzPlanes) * sys.scale)
			w.FlopsPerApply *= sys.scale
			w.ProjAllreduceBytes = int(float64(w.ProjAllreduceBytes) * sys.scale)
			fmt.Printf("-- %s --\n", sys.name)
			fmt.Printf("%-10s %-8s %s\n", "#OpenMP", "#Ndm", "modelled seconds")
			for _, row := range machine.Table2(w, 64, 1000) {
				fmt.Printf("%-10d %-8d %.2f\n", row.Threads, row.Ndm, row.Seconds)
			}
		}
	}
}

func mustModel(st *cbs.Structure, cfg cbs.GridConfig) *cbs.Model {
	m, err := cbs.NewModel(st, cfg)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

// measuredLayers runs real goroutine strong scaling of each layer up to the
// host's core count.
func measuredLayers(model *cbs.Model) {
	ef, err := model.FermiLevel(3)
	if err != nil {
		log.Fatal(err)
	}
	maxW := runtime.NumCPU()
	fmt.Printf("measured on this host (%d cores), N = %d\n", maxW, model.N())
	layers := []struct {
		name string
		cfg  func(w int) cbs.Parallel
		caps int
	}{
		{"top (right-hand sides)", func(w int) cbs.Parallel { return cbs.Parallel{Top: w, Mid: 1, Ndm: 1} }, 8},
		{"middle (quadrature)", func(w int) cbs.Parallel { return cbs.Parallel{Top: 1, Mid: w, Ndm: 1} }, 8},
		{"bottom (domains)", func(w int) cbs.Parallel { return cbs.Parallel{Top: 1, Mid: 1, Ndm: w} }, 4},
	}
	opts := cbs.DefaultOptions()
	opts.Nint = 8
	opts.Nmm = 4
	opts.Nrh = 8
	for _, l := range layers {
		var t1 time.Duration
		fmt.Printf("  %-24s", l.name+":")
		for w := 1; w <= min(maxW, l.caps); w *= 2 {
			o := opts
			o.Parallel = l.cfg(w)
			start := time.Now()
			if _, err := model.SolveCBS(ef, o); err != nil {
				log.Fatal(err)
			}
			el := time.Since(start)
			if w == 1 {
				t1 = el
			}
			fmt.Printf("  %dw=%.2fs(x%.1f)", w, el.Seconds(), t1.Seconds()/el.Seconds())
		}
		fmt.Println()
	}
}

func modelLayers(m cluster.Machine, w cluster.Workload, base cluster.Hierarchy, top, mid, ndm []int) {
	for _, l := range []struct {
		name   string
		counts []int
	}{{"top", top}, {"mid", mid}, {"ndm", ndm}} {
		pts, err := m.LayerScaling(w, base, l.name, l.counts)
		if err != nil {
			log.Fatal(err)
		}
		printModelScaling(l.name, pts)
	}
}

func printModelScaling(layer string, pts []cluster.ScalingPoint) {
	fmt.Printf("  model %-5s:", layer)
	for _, p := range pts {
		fmt.Printf("  %d procs=%.0fs(x%.1f)", p.Workers, p.Time, p.Speedup)
	}
	fmt.Println()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
