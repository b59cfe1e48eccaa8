// Command bench is the repo's one layered benchmark: five workloads over the
// whole stack (contour solve, journaled sweep, CBS->NEGF transport, the cbsd
// job server, the TCP fleet), seven end-to-end metrics per workload with a
// correctness gate, and a separate traced run that attributes time to the
// layers named after the repo's modules. BENCHMARK.json at the repo root
// declares it; README.md in this directory is the manual.
//
//	go run ./bench -workload solve_al                 # end-to-end metrics
//	go run ./bench -workload solve_al -trace 1        # per-layer metrics
//	go run ./bench -workload all -out A.json          # a result document
//	go run ./bench -compare A.json B.json
//	go run ./bench -repeat-check
//
// Everything is measured from outside the program: by timing calls into
// exported functions and by reading what the program already reports.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload to run: solve_al | sweep_al | transport_tb | serve_tb | fleet_al | all")
	seed := flag.Int64("seed", 1, "drives every generated input; seed 1 has committed references")
	seconds := flag.Float64("seconds", 15, "how long the timed part of a run measures")
	trace := flag.String("trace", "0", "0: end-to-end metrics; 1: the traced run with per-layer metrics; a path: the same, and write the spans there")
	smoke := flag.Bool("smoke", false, "tiny problem sizes (all five workloads in well under 20 s); checks code paths, not performance")
	out := flag.String("out", "", "append this run's rows to a result document (created if absent)")
	workdir := flag.String("workdir", ".bench_build", "directory for the cbsd binary and, in a per-run subdirectory removed on exit, journals and checkpoints")
	compare := flag.Bool("compare", false, "compare two result documents given as arguments: bench -compare A.json B.json")
	repeatCheck := flag.Bool("repeat-check", false, "run every workload twice and fail unless each end-to-end metric agrees within its bound")
	updateRefs := flag.Bool("update-refs", false, "recompute the seed-1 reference sets and rewrite bench/testdata/refs.json")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *compare {
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("-compare needs two result documents"))
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke}
	var spanPath string
	switch *trace {
	case "0", "":
	case "1":
		cfg.traced = true
	default:
		cfg.traced, spanPath = true, *trace
	}
	if cfg.seconds <= 0 {
		return fatal(fmt.Errorf("-seconds must be positive"))
	}
	base, err := filepath.Abs(*workdir)
	if err != nil {
		return fatal(err)
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return fatal(err)
	}
	cfg.cbsd = filepath.Join(base, "cbsd")
	if cfg.workdir, err = os.MkdirTemp(base, "run-"); err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(cfg.workdir)

	switch {
	case *updateRefs:
		if err := updateReferences(ctx, cfg); err != nil {
			return fatal(err)
		}
		return 0
	case *repeatCheck:
		return repeatCheckAll(ctx, cfg)
	}

	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = append(todo, w)
	} else {
		flag.Usage()
		return fatal(fmt.Errorf("unknown workload %q", *name))
	}

	status := 0
	var rows []row
	var spans []span
	for _, w := range todo {
		r, sp, err := runWorkload(ctx, w, cfg)
		if err != nil {
			return fatal(err)
		}
		rows, spans = append(rows, r), append(spans, sp...)
		printRow(os.Stdout, &r)
		if r.Failed > 0 {
			status = 1
		}
	}
	if spanPath != "" {
		if err := writeSpans(spanPath, spans); err != nil {
			return fatal(err)
		}
	}
	if *out != "" {
		if err := appendRows(*out, thisHost(), rows); err != nil {
			return fatal(err)
		}
	}
	// The contract line comes last; with -workload all, the last workload's.
	fmt.Println(contractLine(&rows[len(rows)-1]))
	return status
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}
