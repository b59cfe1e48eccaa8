// Package ssm is a fixture helper mimicking the real moment accumulator:
// the lockedmerge analyzer recognizes Accumulator methods by package name
// and receiver type. This package itself must stay diagnostic-free.
package ssm

import "sync"

// Accumulator is an internally-locked merge target.
type Accumulator struct {
	mu  sync.Mutex
	sum []complex128
}

// Add merges one column contribution under the internal lock.
func (a *Accumulator) Add(col int, v complex128) {
	a.mu.Lock()
	a.sum[col] += v
	a.mu.Unlock()
}

// AddPlanes merges one point's worth of columns in one acquisition.
func (a *Accumulator) AddPlanes(vals []complex128) {
	a.mu.Lock()
	for i, v := range vals {
		a.sum[i] += v
	}
	a.mu.Unlock()
}
