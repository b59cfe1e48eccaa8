// Package chaosuser is the downstream chaossite fixture: site
// registration, the name grammar, package-local and cross-package
// uniqueness (through chaosdep's published fact), and the seed-matrix
// coverage rule judged against this package's own test file.
package chaosuser

import (
	"cbs/internal/analysis/chaossite/testdata/src/chaos"
	"cbs/internal/analysis/chaossite/testdata/src/chaosdep"
)

// Solve hits the registered breakdown site; the test file arms it through
// the seed matrix, so it is fully clean.
func Solve(in *chaos.Injector, k int) bool {
	//cbs:chaossite user.breakdown
	if in.Breakdown(k) {
		return false
	}
	_ = in.Seed() // accessor, not a fault draw: no registration required
	return chaosdep.Arm(in, k)
}

// Scan forgets to register its fault site.
func Scan(in *chaos.Injector, i int) bool {
	return in.EnergyFault(i) // want `unregistered chaos fault site: annotate this EnergyFault call`
}

// Tear registers a site under an ill-formed name.
func Tear(in *chaos.Injector, i int) bool {
	//cbs:chaossite Bad_Name
	return in.TornRecord(i) // want `chaos site name "Bad_Name" does not match the grammar`
}

// Restart registers the same name twice in one package.
func Restart(in *chaos.Injector) bool {
	//cbs:chaossite user.dup
	a := in.Breakdown(1)
	//cbs:chaossite user.dup
	b := in.Breakdown(2) // want `chaos site "user\.dup" is already registered at`
	return a || b
}

// Checkpoint reuses a name chaosdep already published as a fact.
func Checkpoint(in *chaos.Injector, i int) bool {
	//cbs:chaossite shared.site
	return in.CheckpointFault(i) // want `chaos site "shared\.site" is already registered in .*chaosdep`
}

// Cache is registered but nothing in this package's tests can reach it.
func Cache(in *chaos.Injector) bool {
	//cbs:chaossite user.cache-a
	return in.CacheFault("a") // want `chaos fault site CacheFault has no seed-matrix coverage`
}

// CacheWaived documents why its uncovered site is sound.
func CacheWaived(in *chaos.Injector) bool {
	//cbs:chaossite user.cache-b
	return in.CacheFault("b") //cbs:chaosexempt exercised by the cross-package integration seed matrix
}
