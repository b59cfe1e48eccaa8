// Package fingerprint derives the stable identity of a CBS computation:
// a 64-bit FNV-1a digest over the operator descriptor, the energy list,
// and every result-affecting solver option. The digest is the shared key
// scheme of the durability and serving layers — the sweep checkpoint
// journal refuses to resume under a changed fingerprint, and the result
// cache (internal/rescache) uses the same key so a journaled sweep and a
// served solve of the same physics always agree on identity.
//
// The parallel layout (Options.Parallel) and the chaos injector are
// deliberately excluded: worker counts only reschedule the arithmetic, so a
// sweep checkpointed on 8 workers may resume on 2, and fault injection is a
// test-harness concern, not part of the computation's identity. Exactly
// which layouts return identical bits: every Top and Mid (each top block
// commits its quadrature points in point order), but not Ndm > 1 (the
// ranks' reductions sum in another order) and not LoadBalanceStop with
// Mid > 1 (its majority rule reads how many points have converged so far,
// which depends on timing). Those agree with the serial solve to solver
// accuracy, not to the bit.
//
// Stability contract: the digest of a given (descriptor, energies,
// options) triple is pinned by golden tests and must never change for the
// "cbs-sweep/v1" domain — existing journals resume against it. Any
// incompatible change to the hashed material must bump the domain string
// (and with it the journal version).
package fingerprint

import (
	"fmt"
	"hash/fnv"
	"strings"

	"cbs/internal/core"
)

// Key digests everything that determines a computation's per-energy
// results: the operator descriptor supplied by the caller, the full
// energy list, and the result-affecting solver options. It returns 16
// lowercase hex digits.
func Key(operatorDesc string, es []float64, opts core.Options) string {
	var sb strings.Builder
	sb.WriteString("cbs-sweep/v1\x00")
	sb.WriteString(operatorDesc)
	sb.WriteByte(0)
	// The trailing pair is retired in-solve Nrh growth, kept as a literal
	// so pinned digests and existing journals still match.
	fmt.Fprintf(&sb, "nint=%d nmm=%d nrh=%d delta=%.17g lmin=%.17g tol=%.17g maxiter=%d rtol=%.17g balance=%t seed=%d expand=false maxexpand=0",
		opts.Nint, opts.Nmm, opts.Nrh, opts.Delta, opts.LambdaMin,
		opts.BiCGTol, opts.MaxIter, opts.ResidualTol, opts.LoadBalanceStop,
		opts.Seed)
	sb.WriteByte(0)
	for _, e := range es {
		fmt.Fprintf(&sb, "%.17g,", e)
	}
	h := fnv.New64a()
	h.Write([]byte(sb.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Solve is the fingerprint of a single-energy solve: by construction a
// one-element sweep, so a cached solve and a one-element journal share a
// key.
func Solve(operatorDesc string, e float64, opts core.Options) string {
	return Key(operatorDesc, []float64{e}, opts)
}

// Transport digests a transport request: the sweep identity (operator,
// energies, solver options — via Key, so the CBS half of the fingerprint
// is shared with plain sweeps) plus the NEGF post-processing descriptor
// (negf.Spec.PostDesc: device geometry, broadening, classification
// tolerance). The serving layer keys /v1/transport jobs and their
// checkpoint journals with it. Same stability contract as Key: pinned by
// golden test, bump the domain string on any incompatible change.
func Transport(operatorDesc string, es []float64, opts core.Options, postDesc string) string {
	h := fnv.New64a()
	h.Write([]byte("cbs-transport/v1\x00" + Key(operatorDesc, es, opts) + "\x00" + postDesc))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Operator digests the operator descriptor alone: the identity of the
// served physics independent of any particular request. The job log
// (internal/jobs) stamps this into its header so a restarted server
// refuses to re-adopt jobs recorded against a different model — the same
// guard the sweep journal applies per-sweep, lifted to the whole store.
// Same stability contract as Key: pinned by golden test, bump the domain
// string on any incompatible change.
func Operator(operatorDesc string) string {
	h := fnv.New64a()
	h.Write([]byte("cbs-operator/v1\x00" + operatorDesc))
	return fmt.Sprintf("%016x", h.Sum64())
}
