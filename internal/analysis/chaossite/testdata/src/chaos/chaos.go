// Package chaos models the real internal/chaos injector for the chaossite
// fixtures: same shape (Config of float64 rates, Injector methods drawing
// faults, FromEnv wiring CBS_CHAOS_* keys), none of the machinery.
package chaos

import "os"

// Config carries the per-fault-kind rates.
type Config struct {
	Breakdown        float64
	RestartBreakdown float64
	EnergyFault      float64
	CheckpointFault  float64
	TornRecord       float64
	CacheFault       float64
	Label            string // non-rate field: not an arming obligation
}

// Injector draws deterministic faults.
type Injector struct {
	cfg  Config
	seed uint64
}

// New builds an injector.
func New(cfg Config, seed uint64) *Injector { return &Injector{cfg: cfg, seed: seed} }

// FromEnv arms every rate from its CBS_CHAOS_* key.
func FromEnv() *Injector {
	rate := func(key string) float64 {
		if os.Getenv(key) != "" {
			return 1
		}
		return 0
	}
	return New(Config{
		Breakdown:        rate("CBS_CHAOS_BREAKDOWN"),
		RestartBreakdown: rate("CBS_CHAOS_RESTART_BREAKDOWN"),
		EnergyFault:      rate("CBS_CHAOS_ENERGY"),
		CheckpointFault:  rate("CBS_CHAOS_CKPT"),
		TornRecord:       rate("CBS_CHAOS_TORN"),
		CacheFault:       rate("CBS_CHAOS_CACHE"),
	}, 1)
}

// Seed is an accessor, not a fault draw.
func (in *Injector) Seed() uint64 { return in.seed }

// Breakdown draws an iterative-solver breakdown fault.
func (in *Injector) Breakdown(k int) bool { return in != nil && in.cfg.Breakdown > 0 && k >= 0 }

// EnergyFault draws a per-energy fault.
func (in *Injector) EnergyFault(i int) bool { return in != nil && in.cfg.EnergyFault > 0 && i >= 0 }

// CheckpointFault draws a journal-append fault.
func (in *Injector) CheckpointFault(i int) bool {
	return in != nil && in.cfg.CheckpointFault > 0 && i >= 0
}

// TornRecord draws a torn-write fault.
func (in *Injector) TornRecord(i int) bool { return in != nil && in.cfg.TornRecord > 0 && i >= 0 }

// CacheFault draws a result-cache fault.
func (in *Injector) CacheFault(key string) bool {
	return in != nil && in.cfg.CacheFault > 0 && key != ""
}
