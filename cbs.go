// Package cbs computes complex band structures (CBS) of z-periodic
// materials from first principles on a real-space grid, reproducing
// Iwase, Futamura, Imakura, Sakurai and Ono, "Efficient and Scalable
// Calculation of Complex Band Structure using Sakurai-Sugiura Method"
// (SC'17, DOI 10.1145/3126908.3126942).
//
// The Kohn-Sham equation of one bulk unit cell is cast as the quadratic
// eigenvalue problem
//
//	[ -lambda^{-1} H- + (E - H0) - lambda H+ ] psi = 0,  lambda = e^{ika},
//
// and only the physically relevant solutions lambda_min < |lambda| <
// 1/lambda_min are computed with the Sakurai-Sugiura contour-integral
// method, using matrix-free BiCG solves (with the dual-system halving
// P(z)^dagger = P(1/conj z)) and three layers of hierarchical parallelism.
// The conventional transfer-matrix baseline (OBM) and the ordinary band
// structure are included for comparison and validation.
//
// # Quick start
//
//	st, _ := cbs.AlBulk100(1)
//	model, _ := cbs.NewModel(st, cbs.GridConfig{Nx: 12, Ny: 12, Nz: 12, Nf: 4})
//	ef, _ := model.FermiLevel(4)
//	res, _ := model.SolveCBS(ef, cbs.DefaultOptions())
//	for _, p := range res.Pairs {
//	    fmt.Println(p.Lambda, p.K)
//	}
//
// All internal computation is in Hartree atomic units; the units subpackage
// converts to eV and angstrom.
package cbs

import (
	"context"
	"fmt"

	"cbs/internal/bandstructure"
	"cbs/internal/core"
	"cbs/internal/fingerprint"
	"cbs/internal/fleet"
	"cbs/internal/hamiltonian"
	"cbs/internal/lattice"
	"cbs/internal/negf"
	"cbs/internal/obm"
	"cbs/internal/operator"
	"cbs/internal/qep"
	"cbs/internal/scf"
	"cbs/internal/sweep"
	"cbs/internal/tb"
	"cbs/internal/transport"
)

// Re-exported types: the public surface of the library.
type (
	// Structure is an orthorhombic unit cell with atoms (bohr), periodic
	// along z.
	Structure = lattice.Structure
	// Atom is one nucleus.
	Atom = lattice.Atom
	// GridConfig selects the real-space discretization (grid points and
	// finite-difference half-width; Nf=4 is the paper's 9-point stencil).
	GridConfig = hamiltonian.Config
	// Options are the Sakurai-Sugiura solver parameters (paper Sec. 4).
	Options = core.Options
	// Parallel configures the three hierarchy layers.
	Parallel = core.Parallel
	// Result is one CBS solve at a fixed energy.
	Result = core.Result
	// Eigenpair is one complex band solution.
	Eigenpair = core.Eigenpair
	// Diagnostics reports the health of one contour solve: recovery-ladder
	// activity, dropped contributions, and the residual budget.
	Diagnostics = core.Diagnostics
	// PointDiag is the per-quadrature-point slice of Diagnostics.
	PointDiag = core.PointDiag
	// DroppedPair is one (quadrature point, probe column) contribution
	// discarded by graceful degradation.
	DroppedPair = core.DroppedPair
	// SweepConfig parameterizes the durable energy-sweep engine: worker
	// count, per-energy retry/escalation budgets, and the checkpoint
	// journal (see internal/sweep).
	SweepConfig = sweep.Config
	// SweepReport is the full per-energy outcome of a durable sweep.
	SweepReport = sweep.Report
	// SweepEnergyResult is one energy's terminal state in a sweep.
	SweepEnergyResult = sweep.EnergyResult
	// SweepStatus is the typed per-energy status (OK, Degraded, Failed,
	// Skipped).
	SweepStatus = sweep.Status
	// FleetCoordinatorConfig tunes the coordinator end of a distributed
	// multi-process sweep: listen address, worker admission, failure
	// detection, and the checkpoint journal (see internal/fleet).
	FleetCoordinatorConfig = fleet.CoordinatorConfig
	// FleetWorkerConfig tunes one fleet worker process: coordinator
	// address, stable worker name, and the per-energy retry ladder.
	FleetWorkerConfig = fleet.WorkerConfig
	// OBMOptions configures the transfer-matrix baseline.
	OBMOptions = obm.Options
	// OBMResult is the baseline's output.
	OBMResult = obm.Result
	// SCFOptions configures the optional self-consistency loop.
	SCFOptions = scf.Options
	// SCFResult is its outcome.
	SCFResult = scf.Result
	// OperatorBackend is the operator contract a CBS solve needs: the
	// cell-periodic applies of H0/H+/H- on split-complex planes, plus
	// identity metadata (see internal/operator). The FD-grid Hamiltonian
	// and the tight-binding backends both satisfy it.
	OperatorBackend = operator.Backend
	// TBChainConfig parameterizes the 1D nearest-neighbor tight-binding
	// chain backend (analytic dispersion E = eps + 2t cos ka).
	TBChainConfig = tb.ChainConfig
	// TBSlabConfig parameterizes the simple-cubic tight-binding slab
	// backend (Nx x Ny hard-wall transverse sites per principal layer).
	TBSlabConfig = tb.SlabConfig
	// TransportSpec describes one CBS->NEGF transport run: energy grid,
	// device, NEGF options.
	TransportSpec = negf.Spec
	// TransportDevice is the scattering region (principal-layer count and
	// optional per-cell barrier shifts).
	TransportDevice = negf.Device
	// TransportOptions tunes the NEGF post-processing (broadening eta,
	// propagating-channel tolerance).
	TransportOptions = negf.Options
	// TransportPoint is T(E) at one energy with channel diagnostics.
	TransportPoint = negf.Point
	// TransportCurve is a transmission sweep's outcome.
	TransportCurve = negf.Curve
	// BiasSpec parameterizes the Landauer current integration.
	BiasSpec = negf.BiasSpec
	// IVPoint is one point of the Landauer I-V characteristic.
	IVPoint = negf.IVPoint
	// DecayOptions tunes the decay-profile reduction (propagating-channel
	// tolerance).
	DecayOptions = transport.Options
)

// DefaultOptions returns the paper's parameter set (Nint=32, Nmm=8,
// Nrh=16, delta=1e-10, lambda_min=0.5, BiCG tolerance 1e-10).
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultOBMOptions returns the baseline's defaults.
func DefaultOBMOptions() OBMOptions { return obm.DefaultOptions() }

// Re-exported sweep statuses.
const (
	SweepOK       = sweep.StatusOK
	SweepDegraded = sweep.StatusDegraded
	SweepFailed   = sweep.StatusFailed
	SweepSkipped  = sweep.StatusSkipped
)

// Re-exported transport point statuses.
const (
	TransportOK     = negf.PointOK
	TransportFailed = negf.PointFailed
)

// Structure generators (see internal/lattice for details).

// AlBulk100 builds nz conventional cells of fcc aluminum stacked along
// <100> (4 atoms per cell).
func AlBulk100(nz int) (*Structure, error) { return lattice.AlBulk100(nz) }

// CNT builds a single-wall (n,m) carbon nanotube in a box with the given
// vacuum margin (bohr).
func CNT(n, m int, vacuum float64) (*Structure, error) { return lattice.CNT(n, m, vacuum) }

// Repeat stacks a structure nz times along z.
func Repeat(s *Structure, nz int) (*Structure, error) { return lattice.Repeat(s, nz) }

// BNDope substitutes nPairs boron/nitrogen pairs for random carbon atoms
// (deterministic in seed).
func BNDope(s *Structure, nPairs int, seed int64) (*Structure, error) {
	return lattice.BNDope(s, nPairs, seed)
}

// Bundle7 arranges seven tubes hexagonally (the paper's "7 bundle").
func Bundle7(tube *Structure, vacuum float64) (*Structure, error) {
	return lattice.Bundle7(tube, vacuum)
}

// CrystallineBundle builds the periodic triangular bundle (2 tubes per
// rectangular cell).
func CrystallineBundle(tube *Structure) (*Structure, error) {
	return lattice.CrystallineBundle(tube)
}

// Model is a discretized system ready for CBS, band-structure, transport
// and baseline calculations. B is the operator backend every solve goes
// through; Op is non-nil only for FD-grid models and gates the
// grid-specific methods (SCF, OBM, conventional bands, domain
// decomposition).
type Model struct {
	Op *hamiltonian.Operator
	B  operator.Backend
}

// NewModel discretizes the structure on the requested grid, building the
// local potential and Kleinman-Bylander projectors (the FD-grid backend).
func NewModel(st *Structure, cfg GridConfig) (*Model, error) {
	op, err := hamiltonian.Build(st, cfg)
	if err != nil {
		return nil, err
	}
	return &Model{Op: op, B: op}, nil
}

// NewTBChain builds a model on the 1D nearest-neighbor tight-binding
// backend: an analytically solvable lead whose complex bands satisfy
// lambda + 1/lambda = (E - eps)/t per primitive cell.
func NewTBChain(cfg TBChainConfig) (*Model, error) {
	b, err := tb.NewChain(cfg)
	if err != nil {
		return nil, err
	}
	return &Model{B: b}, nil
}

// NewTBSlab builds a model on the simple-cubic tight-binding slab backend:
// Nx x Ny decoupled transverse modes, each a cosine band.
func NewTBSlab(cfg TBSlabConfig) (*Model, error) {
	b, err := tb.NewSlab(cfg)
	if err != nil {
		return nil, err
	}
	return &Model{B: b}, nil
}

// Backend exposes the model's operator backend (for callers composing the
// lower-level pipelines, e.g. the serving layer's cached transport sweep).
func (m *Model) Backend() OperatorBackend { return m.B }

// errFDOnly is the typed refusal of a grid-specific method on a non-grid
// backend.
func (m *Model) errFDOnly(what string) error {
	return fmt.Errorf("%s requires the FD-grid backend (this model runs on %q)", what, m.B.Descriptor())
}

// N returns the Hamiltonian dimension (grid points or orbitals per unit
// cell).
func (m *Model) N() int { return m.B.N() }

// CellLength returns the 1D lattice constant a (bohr).
func (m *Model) CellLength() float64 { return m.B.CellLength() }

// FermiLevel estimates the Fermi energy (hartree): an nk-point band sum
// for FD-grid models, the analytic band center for tight-binding backends
// (exact at half filling for the particle-hole-symmetric chain/slab).
func (m *Model) FermiLevel(nk int) (float64, error) {
	if m.Op != nil {
		return bandstructure.FermiLevel(m.Op, nk)
	}
	if fg, ok := m.B.(interface{ FermiGuess() float64 }); ok {
		return fg.FermiGuess(), nil
	}
	return 0, m.errFDOnly("FermiLevel")
}

// Bands returns the conventional band structure: nk wave vectors in
// [0, pi/a] and the nbands lowest energies at each (hartree). Large cells
// with a band cap use the sparse (Chebyshev-filtered) eigensolver; small
// cells or nbands <= 0 (all bands) diagonalize densely.
func (m *Model) Bands(nk, nbands int) ([]float64, [][]float64, error) {
	if m.Op == nil {
		return nil, nil, m.errFDOnly("Bands")
	}
	ks := bandstructure.UniformK(m.Op, nk)
	if nbands > 0 && m.Op.N() > 1200 {
		bs, err := bandstructure.LowestBands(m.Op, ks, nbands)
		return ks, bs, err
	}
	bs, err := bandstructure.Bands(m.Op, ks, nbands)
	return ks, bs, err
}

// SolveCBS computes the complex band structure at energy e (hartree) with
// the Sakurai-Sugiura method.
func (m *Model) SolveCBS(e float64, opts Options) (*Result, error) {
	return core.Solve(qep.NewBackend(m.B, e), opts)
}

// SolveCBSContext is SolveCBS under a context: cancellation or a deadline
// stops the contour solve promptly across all parallel layers, and the
// returned error wraps ctx.Err().
func (m *Model) SolveCBSContext(ctx context.Context, e float64, opts Options) (*Result, error) {
	return core.SolveContext(ctx, qep.NewBackend(m.B, e), opts)
}

// OperatorDesc identifies this model's operator for the sweep journal
// fingerprint: for FD-grid models the structure, grid and cell length; for
// other backends their Descriptor. Backends keep descriptor namespaces
// disjoint (tight-binding descriptors carry a "tb-" prefix no structure
// name uses), so two different backends can never share cache entries or
// resume each other's journals.
func (m *Model) OperatorDesc() string { return m.B.Descriptor() }

// SolveFingerprint returns the identity key of one solve: the shared
// FNV-1a digest (internal/fingerprint) over this model's operator
// descriptor, the energy, and the result-affecting options. Two solves
// with equal fingerprints are the same computation — the key the serving
// layer's result cache and the sweep journal both use.
func (m *Model) SolveFingerprint(e float64, opts Options) string {
	return fingerprint.Solve(m.OperatorDesc(), e, opts)
}

// SweepFingerprint is SolveFingerprint for a whole energy list; it equals
// the fingerprint a checkpoint journal for this sweep carries in its
// header.
func (m *Model) SweepFingerprint(es []float64, opts Options) string {
	return fingerprint.Key(m.OperatorDesc(), es, opts)
}

// SweepCBS runs the durable energy sweep: every energy ends in a typed
// status (OK, Degraded, Failed) instead of the first failure sinking the
// scan, a bounded retry policy escalates solver parameters per failure
// class, and with cfg.CheckpointPath set each completed energy is journaled
// so a killed sweep resumes without re-solving. If cfg.OperatorDesc is
// empty it is filled from OperatorDesc. Cancellation checkpoints completed
// work before returning.
func (m *Model) SweepCBS(ctx context.Context, es []float64, opts Options, cfg SweepConfig) (*SweepReport, error) {
	if cfg.OperatorDesc == "" {
		cfg.OperatorDesc = m.OperatorDesc()
	}
	return sweep.Run(ctx, m.SolveCBSContext, es, opts, cfg)
}

// CoordinateFleet runs a durable sweep across OS processes: it listens on
// cfg.Addr, shards the energies over registered workers by rendezvous
// hash, re-dispatches the share of any worker whose link is lost,
// and journals completed energies exactly like SweepCBS — the report is
// bit-identical to a single-process sweep of the same energies. If
// cfg.OperatorDesc is empty it is filled from OperatorDesc; workers whose
// operator digest differs are refused.
func (m *Model) CoordinateFleet(ctx context.Context, es []float64, opts Options, cfg FleetCoordinatorConfig) (*SweepReport, error) {
	if cfg.OperatorDesc == "" {
		cfg.OperatorDesc = m.OperatorDesc()
	}
	return fleet.Coordinate(ctx, es, opts, cfg)
}

// ServeFleet runs this model as a fleet worker: dial the coordinator at
// cfg.Addr, register under cfg.Name, and solve assigned energies until
// the sweep finishes (nil) or the context dies; a lost link is redialed,
// and the error wraps fleet.ErrLinkLost only when the first registration
// is refused or the coordinator stays unreachable.
// If cfg.OperatorDesc is empty it is filled from OperatorDesc — the
// coordinator verifies the digest before admitting the worker.
func (m *Model) ServeFleet(ctx context.Context, cfg FleetWorkerConfig) error {
	if cfg.OperatorDesc == "" {
		cfg.OperatorDesc = m.OperatorDesc()
	}
	return fleet.Work(ctx, m.SolveCBSContext, cfg)
}

// SolveOBM runs the transfer-matrix baseline at energy e (hartree).
// FD-grid only: the baseline slices the grid into principal layers.
func (m *Model) SolveOBM(e float64, opts OBMOptions) (*OBMResult, error) {
	if m.Op == nil {
		return nil, m.errFDOnly("SolveOBM")
	}
	return obm.Solve(m.Op, e, opts)
}

// RunSCF iterates the model's local potential to self-consistency (small
// FD-grid cells only; see the scf package).
func (m *Model) RunSCF(opts SCFOptions) (*SCFResult, error) {
	if m.Op == nil {
		return nil, m.errFDOnly("RunSCF")
	}
	return scf.Run(m.Op, opts)
}

// CBSMemoryBytes estimates the Sakurai-Sugiura solve's memory footprint.
func (m *Model) CBSMemoryBytes(opts Options) int64 {
	return core.MemoryEstimate(qep.NewBackend(m.B, 0), opts)
}

// OBMMemoryBytes estimates the baseline's memory footprint (FD-grid only;
// 0 for other backends).
func (m *Model) OBMMemoryBytes() int64 {
	if m.Op == nil {
		return 0
	}
	return obm.MemoryEstimate(m.Op)
}

// Transport post-processing (tunneling analysis of CBS scans).
type (
	// DecayPoint is the dominant tunneling decay constant at one energy.
	DecayPoint = transport.Point
)

// DecayProfile reduces a CBS energy scan to beta(E) = min |Im k|, the
// dominant tunneling decay constant (the complex-band loop of Fig. 11).
func DecayProfile(results []*Result) []DecayPoint {
	return transport.DecayProfile(results)
}

// DecayProfileWith is DecayProfile with an explicit propagating-channel
// tolerance; Beta reports the smallest evanescent decay even at energies
// where propagating channels coexist with evanescent ones.
func DecayProfileWith(results []*Result, opts DecayOptions) []DecayPoint {
	return transport.DecayProfileWith(results, opts)
}

// LandauerIV integrates a transmission curve's OK points into the
// spin-degenerate Landauer current at each bias (see internal/negf).
func LandauerIV(points []TransportPoint, bias BiasSpec) []IVPoint {
	return negf.LandauerIV(points, bias)
}

// TransportCBS runs the full CBS -> NEGF pipeline: a durable sweep solves
// spec.Energies, each completed energy is classified into lead channels,
// wave-matched into retarded self-energies, and traced into T(E) through
// spec.Device (Caroli/Fisher-Lee). Per-energy failures land in the point
// statuses; cfg works exactly as in SweepCBS (retries, checkpoint
// journal, resume).
func (m *Model) TransportCBS(ctx context.Context, spec TransportSpec, opts Options, cfg SweepConfig) (*TransportCurve, error) {
	if cfg.OperatorDesc == "" {
		cfg.OperatorDesc = m.OperatorDesc()
	}
	return negf.TransmissionSweep(ctx, m.B, m.SolveCBSContext, spec, opts, cfg)
}

// TransportFingerprint is the identity key of a transport run: the sweep
// fingerprint material plus the NEGF post-processing descriptor. The
// serving layer's /v1/transport cache and journals key on it.
func (m *Model) TransportFingerprint(spec TransportSpec, opts Options) string {
	return fingerprint.Transport(m.OperatorDesc(), spec.Energies, opts, spec.PostDesc())
}

// Transmission estimates the WKB tunneling transmission exp(-2*beta*d)
// through a barrier of the given thickness (bohr).
func Transmission(p DecayPoint, thickness float64) float64 {
	return transport.Transmission(p, thickness)
}

// ComplexBandGap locates the maximum of beta(E) inside the gap.
func ComplexBandGap(profile []DecayPoint) (eAt, betaMax float64, ok bool) {
	return transport.ComplexBandGap(profile)
}

// BranchPoints returns the energies where evanescent branches merge (the
// red dot of the paper's Fig. 11a).
func BranchPoints(profile []DecayPoint) []float64 {
	return transport.BranchPoints(profile)
}
