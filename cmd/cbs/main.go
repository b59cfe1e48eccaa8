// cbs is the command-line driver: compute the complex band structure of a
// built-in system at one energy or over an energy window. Scans run on the
// durable sweep engine: every energy ends in a typed status, failed
// energies are retried with parameter escalation, and with -checkpoint set
// each completed energy is journaled so a killed scan resumes with -resume
// instead of re-solving. Ctrl-C flushes the journal and exits cleanly.
//
// Examples:
//
//	cbs -system al -e 0.0
//	cbs -system cnt -n 8 -m 0 -emin -1 -emax 1 -ne 20
//	cbs -system bundle7 -e 0.1 -top 2 -mid 4 -ndm 2
//	cbs -system al -scan -ne 50 -checkpoint scan.journal
//	cbs -system al -scan -ne 50 -checkpoint scan.journal -resume
//	cbs -system al -scan -ne 50 -fleet-listen :9740 -fleet-min-workers 3
//
// With -fleet-listen the scan is served to cbsw worker processes over TCP
// instead of solved locally: energies shard across the fleet, a worker
// whose link is lost has its share re-dispatched to survivors, and
// the result is identical to the single-process sweep. Per-energy retries
// then live worker-side (cbsw -retries); -scan-workers is ignored.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"sync/atomic"

	"cbs"
	"cbs/internal/chaos"
	"cbs/internal/modelflags"
	"cbs/internal/units"
)

func main() {
	buildModel := modelflags.Register(flag.CommandLine, "seed")

	transportFlag := flag.Bool("transport", false, "run the CBS->NEGF transport pipeline over the energy window: T(E) instead of complex bands")
	devCells := flag.Int("device-cells", 2, "transport: device length in principal layers")
	barrierCells := flag.Int("barrier-cells", 0, "transport: barrier thickness in device cells (centered)")
	barrierEV := flag.Float64("barrier", 0, "transport: diagonal barrier shift on the barrier cells (eV)")
	nBias := flag.Int("nbias", 0, "transport: Landauer I-V points over [0, bias-max] (0 = skip)")
	biasMax := flag.Float64("bias-max", 0.5, "transport: maximum bias (V = eV window around EF)")

	eFlag := flag.Float64("e", math.NaN(), "energy relative to EF (eV); NaN = scan")
	scanFlag := flag.Bool("scan", false, "scan the energy window (overrides -e)")
	emin := flag.Float64("emin", -1, "scan window start (eV, relative to EF)")
	emax := flag.Float64("emax", 1, "scan window end (eV)")
	nE := flag.Int("ne", 11, "scan points")

	checkpoint := flag.String("checkpoint", "", "journal completed energies to this file")
	resume := flag.Bool("resume", false, "resume from the -checkpoint journal (skip completed energies)")
	scanWorkers := flag.Int("scan-workers", 1, "concurrent energies in the sweep")
	retries := flag.Int("retries", 3, "failed solve attempts per energy before it is marked failed")

	fleetListen := flag.String("fleet-listen", "", "coordinate a distributed sweep: listen for cbsw workers on this address (e.g. :9740) and dispatch energies to them instead of solving locally")
	fleetMin := flag.Int("fleet-min-workers", 1, "hold the first dispatch until this many workers have registered")

	nint := flag.Int("nint", 32, "quadrature points per circle")
	nmm := flag.Int("nmm", 8, "moment blocks")
	nrh := flag.Int("nrh", 16, "right-hand sides")
	lmin := flag.Float64("lambda-min", 0.5, "annulus inner radius")
	top := flag.Int("top", 1, "top-layer workers (right-hand sides)")
	mid := flag.Int("mid", 0, "middle-layer workers (quadrature points; 0: GOMAXPROCS/scan-workers/top, at least 1, at most nint)")
	ndm := flag.Int("ndm", 1, "bottom-layer domains")
	balance := flag.Bool("balance", false, "enable the majority early-stop rule")
	scfFlag := flag.Bool("scf", false, "run a small SCF before the CBS")
	diagPath := flag.String("diagnostics", "", "write per-energy solve diagnostics to this JSON file")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget (0 = none); expiry cancels like Ctrl-C")
	flag.Parse()

	// Ctrl-C cancels the contour solve promptly across all parallel layers
	// instead of abandoning in-flight workers.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// A wall-clock budget rides the same context: a checkpointed sweep that
	// overruns it is cut cleanly and resumes with -resume.
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	model, err := buildModel()
	if err != nil {
		log.Fatal(err)
	}
	if model.Op != nil {
		st := model.Op.Structure
		fmt.Fprintf(os.Stderr, "%s: %d atoms\n", st.Name, st.NumAtoms())
	}
	fmt.Fprintf(os.Stderr, "%s: N = %d\n", model.OperatorDesc(), model.N())
	if *scfFlag {
		res, err := model.RunSCF(cbs.SCFOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "SCF: %d iterations, converged=%v, deltaV=%.2e\n",
			res.Iterations, res.Converged, res.DeltaV)
	}
	ef, err := model.FermiLevel(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "EF = %.4f hartree (%.3f eV)\n", ef, units.HartreeToEV(ef))

	opts := cbs.DefaultOptions()
	opts.Nint = *nint
	opts.Nmm = *nmm
	opts.Nrh = *nrh
	opts.LambdaMin = *lmin
	opts.LoadBalanceStop = *balance
	opts.Parallel = cbs.Parallel{Top: *top, Mid: *mid, Ndm: *ndm}
	// Fault injection is env-gated (CBS_CHAOS, CBS_CHAOS_SEED, ...): nil in
	// normal operation, a deterministic injector under the chaos-smoke CI.
	opts.Chaos = chaos.FromEnv()

	var energies []float64
	if !*scanFlag && !math.IsNaN(*eFlag) {
		energies = []float64{ef + units.EVToHartree(*eFlag)}
	} else {
		for i := 0; i < *nE; i++ {
			f := float64(i) / math.Max(1, float64(*nE-1))
			energies = append(energies, ef+units.EVToHartree(*emin+(*emax-*emin)*f))
		}
	}

	if *transportFlag {
		runTransport(ctx, model, energies, opts, ef, transportRun{
			devCells: *devCells, barrierCells: *barrierCells, barrierEV: *barrierEV,
			nBias: *nBias, biasMax: *biasMax,
			checkpoint: *checkpoint, resume: *resume,
			workers: *scanWorkers, retries: *retries,
		})
		return
	}

	// Every energy runs through the durable sweep engine: a single -e solve
	// is a one-element sweep, a scan gets per-energy retries, partial
	// results, and the checkpoint journal. With -fleet-listen the same
	// sweep is served to cbsw worker processes instead: energies shard
	// over the fleet, dead workers' shares re-dispatch to survivors, and
	// the checkpoint journal works identically.
	var (
		report   *cbs.SweepReport
		sweepErr error
	)
	if *fleetListen != "" {
		var solved atomic.Int64
		report, sweepErr = model.CoordinateFleet(ctx, energies, opts, cbs.FleetCoordinatorConfig{
			Addr: *fleetListen,
			OnListen: func(addr string) {
				fmt.Fprintf(os.Stderr, "fleet: coordinating on %s (dispatch begins at %d worker(s))\n", addr, *fleetMin)
			},
			MinWorkers:     *fleetMin,
			CheckpointPath: *checkpoint,
			Resume:         *resume,
			OnEnergy: func(er cbs.SweepEnergyResult) {
				fmt.Fprintf(os.Stderr, "fleet: %d/%d energies complete (E-EF = %+.3f eV: %s)\n",
					solved.Add(1), len(energies), units.HartreeToEV(er.Energy-ef), er.Status)
			},
			Chaos: opts.Chaos,
		})
	} else {
		report, sweepErr = model.SweepCBS(ctx, energies, opts, cbs.SweepConfig{
			Workers:        *scanWorkers,
			MaxAttempts:    *retries,
			CheckpointPath: *checkpoint,
			Resume:         *resume,
			Chaos:          opts.Chaos,
		})
	}

	// Completed results are printed whatever happened to the rest of the
	// sweep: a canceled or partly failed scan still delivers every energy
	// it finished (and has journaled).
	a := model.CellLength()
	fmt.Printf("# E-EF(eV)\tRe(k)a/pi\tIm(k)a/pi\t|lambda|\tresidual\n")
	for _, er := range report.Results {
		eEV := units.HartreeToEV(er.Energy - ef)
		if er.Result != nil {
			for _, p := range er.Result.Pairs {
				fmt.Printf("%.6f\t%+.6f\t%+.6f\t%.6f\t%.2e\n",
					eEV, real(p.K)*a/math.Pi, imag(p.K)*a/math.Pi,
					math.Hypot(real(p.Lambda), imag(p.Lambda)), p.Residual)
			}
		}
		switch er.Status {
		case cbs.SweepOK, cbs.SweepDegraded:
			how := "solved"
			if er.FromJournal {
				how = "restored from journal"
			}
			fmt.Fprintf(os.Stderr, "E-EF = %+.3f eV: %s, %d states, %d attempts\n",
				eEV, how, len(er.Result.Pairs), er.Attempts)
			if er.Status == cbs.SweepDegraded {
				fmt.Fprintf(os.Stderr, "E-EF = %+.3f eV: DEGRADED (%d dropped; escalations: %v)\n",
					eEV, len(er.Result.Diagnostics.DroppedPairs), er.Escalations)
			}
		case cbs.SweepFailed:
			fmt.Fprintf(os.Stderr, "E-EF = %+.3f eV: FAILED after %d attempts: %v\n", eEV, er.Attempts, er.Err)
		case cbs.SweepSkipped:
			fmt.Fprintf(os.Stderr, "E-EF = %+.3f eV: skipped (sweep interrupted)\n", eEV)
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: %d ok, %d degraded, %d failed, %d skipped (%d restored from journal)\n",
		report.OK, report.Degraded, report.Failed, report.Skipped, report.Restored)

	if *diagPath != "" {
		if err := writeDiagnostics(*diagPath, diagReportOf(report, ef)); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "diagnostics written to %s\n", *diagPath)
	}
	if sweepErr != nil {
		if ctx.Err() != nil {
			// SIGINT: the journal holds every completed energy; a -resume
			// rerun picks up from here. This is a clean exit.
			if *checkpoint != "" {
				fmt.Fprintf(os.Stderr, "interrupted: journal %s flushed, rerun with -resume to continue\n", *checkpoint)
			} else {
				fmt.Fprintln(os.Stderr, "interrupted")
			}
			return
		}
		log.Fatal(sweepErr)
	}
	if report.Failed > 0 {
		os.Exit(1)
	}
}

// diagEntry is one energy's outcome in the --diagnostics JSON export.
type diagEntry struct {
	EnergyEV    float64          `json:"energy_ev"`
	Status      cbs.SweepStatus  `json:"status"`
	Attempts    int              `json:"attempts,omitempty"`
	Restored    bool             `json:"restored,omitempty"`
	Escalations []string         `json:"escalations,omitempty"`
	Error       string           `json:"error,omitempty"`
	Diag        *cbs.Diagnostics `json:"diagnostics,omitempty"`
}

// diagTotals aggregates the sweep: status counts plus the recovery-ladder
// activity summed across every completed energy.
type diagTotals struct {
	OK             int     `json:"ok"`
	Degraded       int     `json:"degraded"`
	Failed         int     `json:"failed"`
	Skipped        int     `json:"skipped"`
	Restored       int     `json:"restored"`
	Attempts       int     `json:"attempts"`
	Breakdowns     int     `json:"breakdowns"`
	Restarts       int     `json:"restarts"`
	Fallbacks      int     `json:"fallbacks"`
	DroppedPairs   int     `json:"dropped_pairs"`
	ResidualBudget float64 `json:"residual_budget"` // worst across the sweep
}

// diagReport is the --diagnostics JSON document: per-energy rows plus
// sweep-wide totals.
type diagReport struct {
	Energies []diagEntry `json:"energies"`
	Totals   diagTotals  `json:"totals"`
}

// diagReportOf projects a sweep report into the JSON export.
func diagReportOf(report *cbs.SweepReport, ef float64) *diagReport {
	out := &diagReport{
		Totals: diagTotals{
			OK:       report.OK,
			Degraded: report.Degraded,
			Failed:   report.Failed,
			Skipped:  report.Skipped,
			Restored: report.Restored,
			Attempts: report.Attempts,
		},
	}
	for _, er := range report.Results {
		entry := diagEntry{
			EnergyEV:    units.HartreeToEV(er.Energy - ef),
			Status:      er.Status,
			Attempts:    er.Attempts,
			Restored:    er.FromJournal,
			Escalations: er.Escalations,
		}
		if er.Err != nil {
			entry.Error = er.Err.Error()
		}
		if er.Result != nil {
			d := er.Result.Diagnostics
			entry.Diag = &d
			out.Totals.Breakdowns += d.Breakdowns
			out.Totals.Restarts += d.Restarts
			out.Totals.Fallbacks += d.Fallbacks
			out.Totals.DroppedPairs += len(d.DroppedPairs)
			if d.ResidualBudget > out.Totals.ResidualBudget {
				out.Totals.ResidualBudget = d.ResidualBudget
			}
		}
		out.Energies = append(out.Energies, entry)
	}
	return out
}

// writeDiagnostics exports the sweep diagnostics as indented JSON.
func writeDiagnostics(path string, report *diagReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// transportRun carries the -transport flag group.
type transportRun struct {
	devCells, barrierCells int
	barrierEV              float64
	nBias                  int
	biasMax                float64
	checkpoint             string
	resume                 bool
	workers, retries       int
}

// runTransport drives the CBS -> NEGF pipeline over the energy window and
// prints T(E) (and, with -nbias, the Landauer I-V). The barrier is a
// diagonal shift on the centered -barrier-cells device cells; outside it
// the device is the pristine lead cell.
func runTransport(ctx context.Context, model *cbs.Model, energies []float64, opts cbs.Options, ef float64, run transportRun) {
	dev := cbs.TransportDevice{Cells: run.devCells}
	if run.barrierCells > 0 {
		if run.barrierCells > run.devCells {
			log.Fatalf("-barrier-cells %d exceeds -device-cells %d", run.barrierCells, run.devCells)
		}
		dev.Barrier = make([]float64, run.devCells)
		start := (run.devCells - run.barrierCells) / 2
		for i := 0; i < run.barrierCells; i++ {
			dev.Barrier[start+i] = units.EVToHartree(run.barrierEV)
		}
	}
	spec := cbs.TransportSpec{Energies: energies, Device: dev, Chaos: opts.Chaos}
	curve, err := model.TransportCBS(ctx, spec, opts, cbs.SweepConfig{
		Workers: run.workers, MaxAttempts: run.retries,
		CheckpointPath: run.checkpoint, Resume: run.resume,
		Chaos: opts.Chaos,
	})
	if err != nil {
		if ctx.Err() != nil && run.checkpoint != "" {
			fmt.Fprintf(os.Stderr, "interrupted: journal %s flushed, rerun with -resume to continue\n", run.checkpoint)
			return
		}
		log.Fatal(err)
	}
	failed := 0
	fmt.Printf("# E-EF(eV)\tT\tn_open\tbeta(1/bohr)\tstatus\n")
	for _, p := range curve.Points {
		fmt.Printf("%.6f\t%.6f\t%d\t%.6f\t%s\n",
			units.HartreeToEV(p.E-ef), p.T, p.NOpen, p.Beta, p.Status)
		if p.Status != cbs.TransportOK {
			failed++
			fmt.Fprintf(os.Stderr, "E-EF = %+.3f eV: FAILED: %s\n", units.HartreeToEV(p.E-ef), p.Err)
		}
	}
	if run.nBias > 0 {
		biases := make([]float64, run.nBias)
		for i := range biases {
			f := float64(i) / math.Max(1, float64(run.nBias-1))
			biases[i] = units.EVToHartree(run.biasMax * f)
		}
		iv := cbs.LandauerIV(curve.OK(), cbs.BiasSpec{EFermi: ef, Biases: biases})
		fmt.Printf("# V(V)\tI(G0*hartree)\n")
		for _, p := range iv {
			fmt.Printf("%.6f\t%.8g\n", units.HartreeToEV(p.V), p.I)
		}
	}
	fmt.Fprintf(os.Stderr, "transport: %d/%d energies ok\n", len(curve.Points)-failed, len(curve.Points))
	if failed > 0 {
		os.Exit(1)
	}
}
