package main

import (
	"math"
	"math/rand"
)

// Request kinds of the serve_tb traffic mix.
const (
	kindSolve     = "solve"
	kindSweep     = "sweep"
	kindBands     = "bands"
	kindTransport = "transport"
)

// request is one entry of a client's replay list.
type request struct {
	Kind     string    `json:"kind"`
	Energies []float64 `json:"energies_hartree"` // one for a solve, multiEnergies otherwise
	// Repeat marks a solve of an energy this client already completed: a
	// predicted cache hit. Every other solve is a predicted miss.
	Repeat bool `json:"repeat,omitempty"`
}

const (
	// reqBlock is the period of the mix: every block of 100 requests holds
	// 54 fresh solves, 36 repeated solves (exactly 40 % of the 90 solves)
	// and 10 multi-energy jobs.
	reqBlock      = 100
	blockFresh    = 54
	blockRepeats  = 36
	blockMulti    = 10
	multiEnergies = 4
	// repeatWindow is how far back a repeat reaches: one of the client's 32
	// most recently completed distinct energies. Two clients' windows plus
	// the multi-energy results in between stay far below cbsd's 256-entry
	// LRU, so whether a request hits does not depend on eviction.
	repeatWindow = 32
)

// energyCells deals distinct energies from the transport_tb window to
// `parts` disjoint pools. The window is cut into cells; pool p owns cells p,
// p+parts, ...; each energy is a seeded point inside its own cell, and cells
// that touch a band edge are skipped. Energies of one pool never coincide
// with each other or with another pool's.
type energyCells struct {
	rng         *rand.Rand
	edges       []float64
	width       float64
	next, parts int
}

func newEnergyCells(rng *rand.Rand, need, part, parts int) *energyCells {
	cells := int(math.Ceil(float64(need*parts) * 1.25)) // headroom for skipped cells
	return &energyCells{rng: rng, edges: slabEdges(), width: (tbEmax - tbEmin) / float64(cells), next: part, parts: parts}
}

func (c *energyCells) draw() float64 {
	for {
		e := tbEmin + c.width*(float64(c.next)+0.1+0.8*c.rng.Float64())
		c.next += c.parts
		if clearOfEdges(e, c.edges) {
			return e
		}
	}
}

func clearOfEdges(e float64, edges []float64) bool {
	for _, x := range edges {
		if math.Abs(e-x) < edgeGuard {
			return false
		}
	}
	return true
}

// tbEnergies draws n distinct ascending energies from the window.
func tbEnergies(rng *rand.Rand, n int) []float64 {
	cells := newEnergyCells(rng, n, 0, 1)
	es := make([]float64, n)
	for i := range es {
		es[i] = cells.draw()
	}
	return es
}

// requestLists builds one replay list of `blocks` blocks per client. The
// same seed gives byte-identical lists; clients draw from disjoint energy
// pools, so no request of one client can hit or dedup against the other's.
func requestLists(seed int64, clients, blocks int) [][]request {
	lists := make([][]request, clients)
	for c := range lists {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		need := blocks * (blockFresh + blockMulti*multiEnergies)
		cells := newEnergyCells(rng, need, c, clients)
		var recent []float64 // distinct completed solve energies, oldest first
		for b := 0; b < blocks; b++ {
			// The block's kinds in seeded order; the extra multi-energy job
			// of each block rotates over the three kinds.
			kinds := make([]string, 0, reqBlock)
			for i := 0; i < blockFresh; i++ {
				kinds = append(kinds, kindSolve)
			}
			for i := 0; i < blockRepeats; i++ {
				kinds = append(kinds, "repeat")
			}
			multi := []string{kindSweep, kindBands, kindTransport}
			for i := 0; i < blockMulti; i++ {
				kinds = append(kinds, multi[(i+b)%len(multi)])
			}
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
			if b == 0 { // a repeat needs something to repeat
				for i, k := range kinds {
					if k == kindSolve {
						kinds[0], kinds[i] = kinds[i], kinds[0]
						break
					}
				}
			}
			for _, k := range kinds {
				switch k {
				case kindSolve:
					e := cells.draw()
					lists[c] = append(lists[c], request{Kind: kindSolve, Energies: []float64{e}})
					recent = append(recent, e)
					if len(recent) > repeatWindow {
						recent = recent[1:]
					}
				case "repeat":
					e := recent[rng.Intn(len(recent))]
					lists[c] = append(lists[c], request{Kind: kindSolve, Energies: []float64{e}, Repeat: true})
				default:
					es := make([]float64, multiEnergies)
					for i := range es {
						es[i] = cells.draw()
					}
					lists[c] = append(lists[c], request{Kind: k, Energies: es})
				}
			}
		}
	}
	return lists
}

// predictedLookups counts the result-cache lookups a prefix of requests
// causes: a solve looks its energy up once (repeat: hit, fresh: miss), a
// transport job looks up each of its fresh energies (misses), and sweep and
// bands jobs go through the sweep engine without consulting the cache.
func predictedLookups(reqs []request) (hits, misses int) {
	for _, r := range reqs {
		switch {
		case r.Kind == kindSolve && r.Repeat:
			hits++
		case r.Kind == kindSolve:
			misses++
		case r.Kind == kindTransport:
			misses += len(r.Energies)
		}
	}
	return hits, misses
}
