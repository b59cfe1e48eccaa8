// Package fleet runs a sweep across OS processes: one coordinator owns the
// energy list, the journal and the report; workers dial in over reliable
// TCP links (internal/comm RConn) and solve one energy per assignment with
// the same escalation ladder a single-process sweep applies
// (sweep.SolveOne).
//
// The protocol is deliberately small — five JSON message types on one
// reliable link per worker:
//
//	worker → coordinator:  register, result
//	coordinator → worker:  welcome, assign, done
//
// Sharding is rendezvous hashing of each energy's solve fingerprint
// (fingerprint.Solve key) against the live worker set: every process,
// given the same worker names, computes the same owner for every energy,
// so re-dispatch after a failure is deterministic, and when the live set
// changes only the energies whose winner changed are assigned elsewhere
// (already-completed energies keep their first result).
//
// Failure model: the reliable link already heals everything transient
// (drops, duplicates, reorders, resets, reconnects), and it alone tells a
// dead peer from a silent one — a blocked receiver Naks once per IOTimeout,
// a live peer's link answers even when the process above it has nothing to
// say (a worker deep in a long solve, a coordinator with nothing to
// assign), so only IOTimeout*RetryBudget of answering nothing fails a link.
// The fleet has no keepalive of its own. What this layer handles is link
// death — a worker whose link fails typed (ErrPartition after the
// starvation budget, ErrPeerLost, persistent ErrFrameCorrupt) is declared
// dead, its outstanding energies return to the pool, and the rendezvous
// hash re-dispatches them over the survivors. A worker that breaks the
// protocol (a result that does not answer the energy it names) is dropped
// the same way. A worker that was
// only presumed dead and later completes is harmless: results for already
// -recorded energies are dropped, and its stale link identity is refused
// so the process fails fast and can rejoin fresh. Worker-side, every
// assignment is verified against the worker's own operator description
// before any compute: a coordinator and worker that disagree about the
// physics produce a typed fingerprint refusal, not a wrong band structure.
package fleet

import (
	"cbs/internal/core"
	"cbs/internal/sweep"
)

// Message types of the fleet application protocol.
const (
	msgRegister = "register" // worker's first frame: name + operator digest
	msgWelcome  = "welcome"  // coordinator's reply: slot id + solve options
	msgAssign   = "assign"   // one energy, with its solve fingerprint
	msgResult   = "result"   // terminal outcome of one assignment
	msgDone     = "done"     // sweep complete; worker may exit
)

// msg is the single wire message of the fleet protocol; Type selects which
// fields are meaningful. It rides JSON-encoded, one message per link payload.
type msg struct {
	Type string `json:"type"`

	// register / welcome
	Name     string        `json:"name,omitempty"`     // worker's self-chosen identity
	Operator string        `json:"operator,omitempty"` // operator fingerprint digest
	ID       byte          `json:"id,omitempty"`       // assigned link slot (welcome)
	Opts     *core.Options `json:"opts,omitempty"`     // solve options, Chaos stripped

	// assign / result
	Index  int           `json:"index,omitempty"`
	Energy float64       `json:"energy,omitempty"`
	Key    string        `json:"key,omitempty"` // fingerprint.Solve of this assignment
	Record *sweep.Record `json:"record,omitempty"`
}

// rendezvous scores one (energy key, worker name) pair with FNV-1a; each
// energy goes to the live worker with the highest score. Deterministic
// and independent of join order.
func rendezvous(key, name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= '|'
	h *= prime64
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}
