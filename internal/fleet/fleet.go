// Package fleet runs a sweep across OS processes: one coordinator owns the
// energy list, the journal and the report; workers dial in over TCP and
// solve one energy per assignment with the same escalation ladder a
// single-process sweep applies (sweep.SolveOne).
//
// The protocol is deliberately small — five JSON message types, each one
// CRC-framed line (journal.Frame) on one TCP conn per worker session:
//
//	worker → coordinator:  register, result
//	coordinator → worker:  welcome, assign, done
//
// plus the empty message either end's writer sends after a heartbeat
// period with nothing to send.
//
// Sharding is rendezvous hashing of each energy's solve fingerprint
// (fingerprint.Solve key) against the live worker set: every process,
// given the same worker names, computes the same owner for every energy,
// so re-dispatch after a failure is deterministic, and when the live set
// changes only the energies whose winner changed are assigned elsewhere
// (already-completed energies keep their first result).
//
// Failure model: the energies carry no communication, so a lost energy
// costs one re-solve and the fleet has one recovery path. Every link
// failure — EOF, a reset, a frame failing its CRC, an oversize line,
// nothing heard for the horizon — is ErrLinkLost. The coordinator answers
// it by dropping the worker session: its outstanding energies return to
// the pool and the rendezvous hash re-dispatches them over the survivors.
// A worker that breaks the protocol (a result that does not answer the
// energy it names) is dropped the same way. A worker whose welcomed session
// is lost redials and registers again under its name; a late result for an
// energy already recorded is dropped, first writer wins. The heartbeat is
// the only liveness mechanism: each end's writer sends an empty message
// when idle, so a worker deep in a long solve is never dropped and a
// frozen one is dropped one horizon after its last frame. Worker-side,
// every assignment is verified against the worker's own operator
// description before any compute: a coordinator and worker that disagree
// about the physics produce a typed fingerprint refusal, not a wrong band
// structure.
package fleet

import (
	"cbs/internal/core"
	"cbs/internal/sweep"
)

// Message types of the fleet application protocol.
const (
	msgRegister = "register" // worker's first frame: name + operator digest
	msgWelcome  = "welcome"  // coordinator's reply: solve options
	msgAssign   = "assign"   // one energy, with its solve fingerprint
	msgResult   = "result"   // terminal outcome of one assignment
	msgDone     = "done"     // sweep complete; worker may exit
)

// msg is the single wire message of the fleet protocol; Type selects which
// fields are meaningful. It rides JSON-encoded, one message per frame.
type msg struct {
	Type string `json:"type"`

	// register / welcome
	Name     string        `json:"name,omitempty"`     // worker's self-chosen identity
	Operator string        `json:"operator,omitempty"` // operator fingerprint digest
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
