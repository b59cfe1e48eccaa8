// Package core is the lockedmerge fixture: its name puts it in the
// analyzer's scope, and it exercises the depth rule — shared-state ops at
// loop depth 1 (per point) are sanctioned, at depth >= 2 (per column) they
// are flagged. Function literals are independent worker scopes.
package core

import (
	"context"
	"sync"

	"cbs/internal/analysis/lockedmerge/testdata/src/ssm"
)

type stats struct {
	mu  sync.Mutex
	sum float64
}

// add locks outside any loop: fine.
func (s *stats) add(v float64) {
	s.mu.Lock()
	s.sum += v
	s.mu.Unlock()
}

// perPoint accumulates a point locally and merges once per point (depth 1):
// the sanctioned pattern.
func perPoint(points [][]float64, s *stats) {
	for _, p := range points {
		local := 0.0
		for _, v := range p {
			local += v
		}
		s.mu.Lock()
		s.sum += local
		s.mu.Unlock()
	}
}

// perColumn locks once per element (depth 2): the regression this analyzer
// exists to catch.
func perColumn(points [][]float64, s *stats) {
	for _, p := range points {
		for _, v := range p {
			s.mu.Lock() // want `Mutex\.Lock in a nested \(per-column\) loop`
			s.sum += v
			s.mu.Unlock() // want `Mutex\.Unlock in a nested \(per-column\) loop`
		}
	}
}

// workerSend is clean: the goroutine body is its own scope, so the send
// sits at depth 1 there.
func workerSend(points [][]float64, out chan<- float64) {
	go func() {
		for _, p := range points {
			local := 0.0
			for _, v := range p {
				local += v
			}
			out <- local
		}
	}()
}

// columnSend sends per column (depth 2): flagged.
func columnSend(points [][]float64, out chan<- float64) {
	for _, p := range points {
		for _, v := range p {
			out <- v // want `channel send in a nested \(per-column\) loop`
		}
	}
}

// columnMerge calls the internally-locking accumulator per column: flagged.
func columnMerge(points [][]complex128, acc *ssm.Accumulator) {
	for _, p := range points {
		for c, v := range p {
			acc.Add(c, v) // want `Accumulator\.Add locks internally and is called in a nested \(per-column\) loop`
		}
	}
}

// pointMerge buffers a point's columns and merges once per point: clean.
func pointMerge(points [][]complex128, buf []complex128, acc *ssm.Accumulator) {
	for _, p := range points {
		for c, v := range p {
			buf[c] = v
		}
		acc.AddPlanes(buf[:len(p)])
	}
}

// columnCancelPoll receives from the context's cancellation channel per
// column: exempt — cancellation plumbing holds no lock and must be allowed
// to notice a dead solve at any depth.
func columnCancelPoll(ctx context.Context, points [][]float64) float64 {
	local := 0.0
	for _, p := range points {
		for _, v := range p {
			select {
			case <-ctx.Done():
				return local
			default:
			}
			local += v
		}
	}
	return local
}

// columnCancelRecv is the blocking form of the same idiom: also exempt.
func columnCancelRecv(ctx context.Context, points [][]float64, done bool) {
	for _, p := range points {
		for range p {
			if done {
				<-ctx.Done()
				return
			}
		}
	}
}

// columnMixedSelect waits on a data channel alongside cancellation per
// column: the data receive makes it a real synchronization point, flagged.
func columnMixedSelect(ctx context.Context, points [][]float64, in <-chan float64) float64 {
	local := 0.0
	for _, p := range points {
		for range p {
			select { // want `select in a nested \(per-column\) loop`
			case <-ctx.Done():
				return local
			case v := <-in: // want `channel receive in a nested \(per-column\) loop`
				local += v
			}
		}
	}
	return local
}
