// Package chaos is a deterministic fault injector for the resilience tests
// of the CBS pipeline. Every injection decision is a pure hash of the
// injector seed and the fault site's identity (quadrature point, probe
// column, ladder attempt, halo link/sequence), never of call order, so a
// run with a given seed injects exactly the same faults regardless of how
// the parallel layers schedule their workers. Production runs carry a nil
// injector: every method is nil-safe and a nil receiver injects nothing.
//
// The injector is env-gated for the chaos-smoke CI job: FromEnv returns nil
// unless CBS_CHAOS is set, so the same test binaries run clean by default
// and faulty under the seed matrix.
package chaos

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
)

// ErrInjected is the sentinel wrapped by every injected hard fault, so
// callers can distinguish chaos from genuine failures with errors.Is.
var ErrInjected = errors.New("chaos: injected fault")

// Site identifies one fault site in the solve: the quadrature point, the
// probe column, and the recovery-ladder attempt (0 for the first solve).
type Site struct {
	Point   int
	Col     int
	Attempt int
}

// Config sets the per-site injection rates (each a probability in [0,1])
// and optional targeting restrictions.
type Config struct {
	// Breakdown is the probability that the BiCG shadow inner product of a
	// (point, column, attempt=0) solve is zeroed, forcing an immediate
	// Krylov breakdown (rung 0 failure).
	Breakdown float64
	// RestartBreakdown is the probability that a rung-1 restart (attempt
	// >= 1) of an affected solve breaks down again.
	RestartBreakdown float64
	// FallbackFail is the probability that the rung-2 GMRES fallback of a
	// (point, column) is declared failed, forcing the graceful-degradation
	// rung (the point pair is dropped).
	FallbackFail float64
	// PointFault is the probability that a worker picking up a quadrature
	// point hits a hard fault (a typed error that must cancel the solve).
	PointFault float64
	// Halo is the probability that one point-to-point payload of the
	// bottom-layer fabric is zeroed (a corrupted/dropped halo message).
	Halo float64

	// EnergyFault is the probability that one whole energy of a sweep
	// fails hard before its solve starts (the sweep-level analog of
	// PointFault: the retry policy sees a typed injected error on every
	// attempt, so the energy must end Failed without sinking the sweep).
	EnergyFault float64
	// CheckpointFault is the probability that the journal append for one
	// energy record fails with a typed error (a full disk / EIO stand-in).
	CheckpointFault float64
	// TornRecord is the probability that the journal append for one
	// energy record is cut mid-write (a crash between write and fsync):
	// only a prefix of the record reaches the file and no newline follows.
	TornRecord float64

	// JobFault is the probability that a job picked up by a serving-layer
	// worker (internal/jobs) fails hard before its task runs: the job must
	// end Failed with a typed injected error while the server keeps
	// serving — the job-level analog of EnergyFault.
	JobFault float64
	// CacheFault is the probability that one result-cache lookup
	// (internal/rescache) is forced to miss — the stand-in for an evicted
	// or corrupted entry. A hit site is deterministic per key, so an
	// affected fingerprint never caches; the serving layer must still
	// return correct results, just without the shortcut.
	CacheFault float64

	// JobLogFault is the probability that one append to the persistent job
	// log (internal/jobs store) fails: half the hits fail cleanly before
	// writing (a full-disk / EIO stand-in), the other half tear mid-write —
	// only a prefix of the frame reaches the file, the on-disk image of a
	// crash between write and fsync. Either way the append reports a typed
	// failure; the restart replay must drop the fragment and keep serving.
	JobLogFault float64
	// AdoptFault is the probability that the restart re-adoption of one
	// replayed job fails hard before its task is rebuilt: the job must end
	// Failed with a typed injected error (never silently vanish) while the
	// rest of the recovery proceeds.
	AdoptFault float64

	// NEGFFault is the probability that the lead self-energy construction
	// for one transport energy fails hard (an ill-conditioned mode-matrix
	// inversion stand-in): the per-energy NEGF post-processing must report
	// a typed injected error for that energy while the rest of the
	// transmission sweep completes.
	NEGFFault float64

	// NetReset is the probability that one write of a fleet link closes
	// the conn instead of writing: both ends see the link die mid-session,
	// so the coordinator must re-dispatch the worker's energies and the
	// worker must redial and register again.
	NetReset float64
	// NetConn is the probability that one dial attempt of a fleet worker
	// fails outright (connection refused / unreachable stand-in), forcing
	// a redial.
	NetConn float64

	// Columns, when non-empty, restricts the column-scoped injections
	// (Breakdown, RestartBreakdown, FallbackFail) to the listed probe
	// columns.
	Columns []int
	// Points, when non-empty, restricts PointFault to the listed
	// quadrature points.
	Points []int
	// Energies, when non-empty, restricts the sweep-scoped injections
	// (EnergyFault, CheckpointFault, TornRecord) to the listed energy
	// indices.
	Energies []int
}

// Injector draws deterministic injection decisions from a seed.
type Injector struct {
	seed int64
	cfg  Config
}

// New builds an injector with the given seed and rates.
func New(seed int64, cfg Config) *Injector {
	return &Injector{seed: seed, cfg: cfg}
}

// Seed returns the injector's seed (nil-safe; 0 for nil).
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// FromEnv builds an injector from the environment, or returns nil when
// CBS_CHAOS is unset/empty (the production default). Recognized variables:
//
//	CBS_CHAOS=1                  enable injection
//	CBS_CHAOS_SEED=<int>         seed (default 1)
//	CBS_CHAOS_BREAKDOWN=<p>      first-attempt breakdown rate (default 0.25)
//	CBS_CHAOS_RESTART=<p>        restart breakdown rate (default 0)
//	CBS_CHAOS_FALLBACK=<p>       fallback failure rate (default 0)
//	CBS_CHAOS_POINT=<p>          hard point-fault rate (default 0)
//	CBS_CHAOS_HALO=<p>           halo corruption rate (default 0)
//	CBS_CHAOS_ENERGY=<p>         sweep energy hard-fault rate (default 0)
//	CBS_CHAOS_CKPT=<p>           checkpoint write-fault rate (default 0)
//	CBS_CHAOS_TORN=<p>           torn journal-record rate (default 0)
//	CBS_CHAOS_JOB=<p>            serving-layer job hard-fault rate (default 0)
//	CBS_CHAOS_CACHE=<p>          forced result-cache miss rate (default 0)
//	CBS_CHAOS_JOBLOG=<p>         torn/failed job-log append rate (default 0)
//	CBS_CHAOS_ADOPT=<p>          restart re-adoption fault rate (default 0)
//	CBS_CHAOS_NEGF=<p>           lead self-energy construction fault rate (default 0)
//	CBS_CHAOS_NET_RESET=<p>      fleet link write-turned-reset rate (default 0)
//	CBS_CHAOS_NET_CONN=<p>       failed fleet dial-attempt rate (default 0)
func FromEnv() *Injector {
	if os.Getenv("CBS_CHAOS") == "" {
		return nil
	}
	seed := int64(1)
	if s := os.Getenv("CBS_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			seed = v
		}
	}
	rate := func(key string, def float64) float64 {
		s := os.Getenv(key)
		if s == "" {
			return def
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 || v > 1 {
			return def
		}
		return v
	}
	return New(seed, Config{
		Breakdown:        rate("CBS_CHAOS_BREAKDOWN", 0.25),
		RestartBreakdown: rate("CBS_CHAOS_RESTART", 0),
		FallbackFail:     rate("CBS_CHAOS_FALLBACK", 0),
		PointFault:       rate("CBS_CHAOS_POINT", 0),
		Halo:             rate("CBS_CHAOS_HALO", 0),
		EnergyFault:      rate("CBS_CHAOS_ENERGY", 0),
		CheckpointFault:  rate("CBS_CHAOS_CKPT", 0),
		TornRecord:       rate("CBS_CHAOS_TORN", 0),
		JobFault:         rate("CBS_CHAOS_JOB", 0),
		CacheFault:       rate("CBS_CHAOS_CACHE", 0),
		JobLogFault:      rate("CBS_CHAOS_JOBLOG", 0),
		AdoptFault:       rate("CBS_CHAOS_ADOPT", 0),
		NEGFFault:        rate("CBS_CHAOS_NEGF", 0),
		NetReset:         rate("CBS_CHAOS_NET_RESET", 0),
		NetConn:          rate("CBS_CHAOS_NET_CONN", 0),
	})
}

// splitmix64 is the SplitMix64 finalizer: a fast, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hit draws the deterministic decision for one (kind, a, b, c) site.
func (in *Injector) hit(p float64, kind uint64, a, b, c int) bool {
	if in == nil || p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	h := splitmix64(uint64(in.seed))
	h = splitmix64(h ^ kind)
	h = splitmix64(h ^ uint64(a)<<1)
	h = splitmix64(h ^ uint64(b)<<2)
	h = splitmix64(h ^ uint64(c)<<3)
	// Top 53 bits as a uniform [0,1) fraction.
	return float64(h>>11)/float64(1<<53) < p
}

// colTargeted reports whether column injections apply to col.
func (in *Injector) colTargeted(col int) bool {
	if len(in.cfg.Columns) == 0 {
		return true
	}
	for _, c := range in.cfg.Columns {
		if c == col {
			return true
		}
	}
	return false
}

const (
	kindBreakdown = 0x6272 // "br"
	kindFallback  = 0x6662 // "fb"
	kindPoint     = 0x7074 // "pt"
	kindHalo      = 0x686c // "hl"
	kindEnergy    = 0x656e // "en"
	kindCkpt      = 0x636b // "ck"
	kindTorn      = 0x746e // "tn"
	kindJob       = 0x6a62 // "jb"
	kindCache     = 0x6361 // "ca"
	kindJobLog    = 0x6a6c // "jl"
	kindAdopt     = 0x6164 // "ad"
	kindNEGF      = 0x6e67 // "ng"
	kindNetReset  = 0x6e72 // "nr"
	kindNetConn   = 0x6e63 // "nc"
)

// Breakdown reports whether the BiCG solve at s should break down
// (attempt 0 uses the Breakdown rate, restarts the RestartBreakdown rate).
func (in *Injector) Breakdown(s Site) bool {
	if in == nil || !in.colTargeted(s.Col) {
		return false
	}
	p := in.cfg.Breakdown
	if s.Attempt > 0 {
		p = in.cfg.RestartBreakdown
		// A restart of a clean solve never breaks down: the restart rate
		// describes how sticky an injected breakdown is, not a fresh fault.
		if !in.hit(in.cfg.Breakdown, kindBreakdown, s.Point, s.Col, 0) {
			return false
		}
	}
	return in.hit(p, kindBreakdown, s.Point, s.Col, s.Attempt)
}

// FallbackFail reports whether the GMRES fallback at (point, col) should be
// declared failed, forcing the degradation rung.
func (in *Injector) FallbackFail(point, col int) bool {
	if in == nil || !in.colTargeted(col) {
		return false
	}
	return in.hit(in.cfg.FallbackFail, kindFallback, point, col, 0)
}

// PointFault returns a typed injected error when the worker picking up
// quadrature point j should hit a hard fault, nil otherwise.
func (in *Injector) PointFault(point int) error {
	if in == nil {
		return nil
	}
	if len(in.cfg.Points) > 0 {
		found := false
		for _, p := range in.cfg.Points {
			if p == point {
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	if !in.hit(in.cfg.PointFault, kindPoint, point, 0, 0) {
		return nil
	}
	return fmt.Errorf("%w: hard fault at quadrature point %d", ErrInjected, point)
}

// CorruptHalo reports whether the seq-th payload on the (src, dst) link of
// one communication world should be zeroed.
func (in *Injector) CorruptHalo(src, dst int, seq int64) bool {
	if in == nil {
		return false
	}
	return in.hit(in.cfg.Halo, kindHalo, src, dst, int(seq))
}

// energyTargeted reports whether sweep-scoped injections apply to the
// energy index.
func (in *Injector) energyTargeted(index int) bool {
	if len(in.cfg.Energies) == 0 {
		return true
	}
	for _, e := range in.cfg.Energies {
		if e == index {
			return true
		}
	}
	return false
}

// EnergyFault returns a typed injected error when the sweep energy at
// index should fail hard before its solve, nil otherwise. Every attempt of
// a hit energy fails (the attempt is not part of the site), so the retry
// policy must exhaust its budget and mark the energy Failed.
func (in *Injector) EnergyFault(index int) error {
	if in == nil || !in.energyTargeted(index) {
		return nil
	}
	if !in.hit(in.cfg.EnergyFault, kindEnergy, index, 0, 0) {
		return nil
	}
	return fmt.Errorf("%w: hard fault at sweep energy %d", ErrInjected, index)
}

// CheckpointFault returns a typed injected error when the journal append
// for the energy record at index should fail, nil otherwise.
func (in *Injector) CheckpointFault(index int) error {
	if in == nil || !in.energyTargeted(index) {
		return nil
	}
	if !in.hit(in.cfg.CheckpointFault, kindCkpt, index, 0, 0) {
		return nil
	}
	return fmt.Errorf("%w: checkpoint write fault at sweep energy %d", ErrInjected, index)
}

// JobFault returns a typed injected error when the serving-layer job with
// the given submission sequence number should fail hard at worker pickup,
// nil otherwise. The site is the sequence number, not the worker, so the
// decision is independent of pool scheduling; every retry of a faulted
// submission is a new sequence number and draws fresh.
func (in *Injector) JobFault(seq int) error {
	if in == nil {
		return nil
	}
	if !in.hit(in.cfg.JobFault, kindJob, seq, 0, 0) {
		return nil
	}
	return fmt.Errorf("%w: hard fault at job %d", ErrInjected, seq)
}

// CacheFault reports whether the result-cache lookup for key should be
// forced to miss. The site is an FNV-1a fold of the key, so the decision
// is per-fingerprint deterministic: an affected key misses on every
// lookup, and the serving layer must produce correct results without the
// cache's help.
func (in *Injector) CacheFault(key string) bool {
	if in == nil {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	s := h.Sum64()
	return in.hit(in.cfg.CacheFault, kindCache, int(s&0x7fffffff), int(s>>33), 0)
}

// JobLogFault decides the fate of the job-log append for the record with
// the given per-log sequence number: a nil error is a clean append; a
// non-nil error with torn=false is a clean failure (nothing written); a
// non-nil error with torn=true means the append was cut mid-write and a
// CRC-failing fragment is on disk. The site is the record sequence number,
// so the decision is independent of pool scheduling.
func (in *Injector) JobLogFault(seq int) (torn bool, err error) {
	if in == nil {
		return false, nil
	}
	if !in.hit(in.cfg.JobLogFault, kindJobLog, seq, 0, 0) {
		return false, nil
	}
	// A second draw splits hits between clean failures and torn writes.
	torn = in.hit(0.5, kindJobLog, seq, 1, 0)
	return torn, fmt.Errorf("%w: job-log append fault at record %d (torn=%t)", ErrInjected, seq, torn)
}

// AdoptFault returns a typed injected error when the restart re-adoption
// of the replayed job with the given submission sequence number should
// fail, nil otherwise.
func (in *Injector) AdoptFault(seq int) error {
	if in == nil {
		return nil
	}
	if !in.hit(in.cfg.AdoptFault, kindAdopt, seq, 0, 0) {
		return nil
	}
	return fmt.Errorf("%w: re-adoption fault at job %d", ErrInjected, seq)
}

// NEGFFault returns a typed injected error when the lead self-energy
// construction for the transport energy at index should fail hard, nil
// otherwise. The site is the energy index (shared with the sweep-scoped
// Energies targeting), so the decision is independent of how the
// transmission sweep schedules its workers.
func (in *Injector) NEGFFault(index int) error {
	if in == nil || !in.energyTargeted(index) {
		return nil
	}
	if !in.hit(in.cfg.NEGFFault, kindNEGF, index, 0, 0) {
		return nil
	}
	return fmt.Errorf("%w: lead self-energy fault at transport energy %d", ErrInjected, index)
}

// TornRecord reports whether the journal append for the energy record at
// index should be cut mid-write, leaving a torn (CRC-failing, unterminated)
// tail that the loader must detect and drop.
func (in *Injector) TornRecord(index int) bool {
	if in == nil || !in.energyTargeted(index) {
		return false
	}
	return in.hit(in.cfg.TornRecord, kindTorn, index, 0, 0)
}

// The network sites are keyed by an operation counter — the write index on
// one link, the dial attempt of one worker — so a fresh link or a redial
// draws fresh, and a deterministic injector cannot doom one message forever.

// NetReset reports whether the op-th write on fleet link number link should
// close the conn instead.
func (in *Injector) NetReset(link int, op int64) bool {
	if in == nil {
		return false
	}
	return in.hit(in.cfg.NetReset, kindNetReset, link, int(op), 0)
}

// NetConn reports whether the attempt-th dial of a fleet worker should fail
// outright.
func (in *Injector) NetConn(attempt int64) bool {
	if in == nil {
		return false
	}
	return in.hit(in.cfg.NetConn, kindNetConn, int(attempt), 0, 0)
}
