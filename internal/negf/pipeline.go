// pipeline.go batches the NEGF post-processing over an energy grid through
// the sweep engine, so a transmission curve inherits the solver retry
// ladder, checkpoint journaling and fleet sharding that band sweeps
// already have: the expensive part of T(E) is the CBS solve per energy,
// and that part IS a sweep.
package negf

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cbs/internal/chaos"
	"cbs/internal/core"
	"cbs/internal/operator"
	"cbs/internal/sweep"
	"cbs/internal/transport"
)

// Spec describes one transport run: the energy grid, the device, and the
// NEGF options.
type Spec struct {
	Energies []float64
	Device   Device
	Options  Options

	// Chaos optionally injects per-energy self-energy construction faults
	// (see chaos.Config.NEGFFault); nil in production.
	Chaos *chaos.Injector
}

// PostDesc canonically describes the post-processing half of a transport
// request — everything beyond the CBS sweep that changes T(E): the device
// geometry and the resolved NEGF options. fingerprint.Transport hashes it
// next to the sweep key, so two transport requests share identity exactly
// when both the solves and the post-processing agree. Same stability
// contract as the fingerprint domains: pinned by golden test.
func (s Spec) PostDesc() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cells=%d eta=%.17g ptol=%.17g",
		s.Device.Cells, s.Options.eta(), s.Options.tol())
	if len(s.Device.Barrier) > 0 {
		sb.WriteString(" barrier=")
		for _, v := range s.Device.Barrier {
			fmt.Fprintf(&sb, "%.17g,", v)
		}
	}
	return sb.String()
}

// PointStatus is the terminal state of one transport energy.
type PointStatus string

const (
	PointOK     PointStatus = "ok"
	PointFailed PointStatus = "failed"
)

// Point is T(E) at one energy with its channel diagnostics.
type Point struct {
	E      float64     `json:"e"`
	T      float64     `json:"t"`
	NOpen  int         `json:"n_open"`           // open lead channels per direction
	Beta   float64     `json:"beta"`             // smallest evanescent lead decay (1/bohr); 0 if none
	NFill  int         `json:"n_fill,omitempty"` // approximate basis completions (see Leads.NFill)
	Status PointStatus `json:"status"`
	Err    string      `json:"err,omitempty"`
}

// Curve is a transmission sweep: T(E) in energy order plus the underlying
// solver report (retry/restore/failure bookkeeping per energy).
type Curve struct {
	Points []Point
	Report *sweep.Report
}

// OK returns the successfully transmitted points in energy order.
func (c *Curve) OK() []Point {
	out := make([]Point, 0, len(c.Points))
	for _, p := range c.Points {
		if p.Status == PointOK {
			out = append(out, p)
		}
	}
	return out
}

// TransmissionSweep drives the full CBS -> T(E) pipeline: sweep.Run solves
// (or restores) every energy under the retry policy, then each completed
// energy is classified, wave-matched into lead self-energies, and traced
// into a transmission value. Per-energy failures — solver or NEGF — land
// in the point's status, never sink the sweep; the returned error is
// reserved for sweep infrastructure failures (journal, fingerprint
// mismatch, cancellation), mirroring sweep.Run.
//
// The post-processing starts after sweep.Run returns. The energy-independent
// lead data is built once, and the energies are shared out over
// min(coreOpts.Parallel.Cores(), #energies) goroutines — the whole share,
// because every solve has finished — each point written by its index, so
// the curve does not depend on the goroutine count.
//
//cbs:cancellable
func TransmissionSweep(ctx context.Context, b operator.Backend, solve sweep.SolveFunc, spec Spec, coreOpts core.Options, cfg sweep.Config) (*Curve, error) {
	if err := spec.Device.Validate(); err != nil {
		return nil, err
	}
	rep, err := sweep.Run(ctx, solve, spec.Energies, coreOpts, cfg)
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(rep.Results))
	lead := newLeadCell(b)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(coreOpts.Parallel.Cores(), len(points)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := newWorkspace(b.N())
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) || ctx.Err() != nil {
					return
				}
				points[i] = lead.point(ws, b, i, rep.Results[i], spec)
			}
		}()
	}
	wg.Wait()
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	sort.Slice(points, func(i, j int) bool { return points[i].E < points[j].E })
	return &Curve{Report: rep, Points: points}, nil
}

// point post-processes one terminal energy outcome in ws.
func (c *leadCell) point(ws *workspace, b operator.Backend, index int, er sweep.EnergyResult, spec Spec) Point {
	p := Point{E: er.Energy, Status: PointFailed}
	if er.Result == nil {
		if er.Err != nil {
			p.Err = er.Err.Error()
		} else {
			p.Err = "energy " + string(er.Status)
		}
		return p
	}
	//cbs:chaossite negf.selfenergy
	if err := spec.Chaos.NEGFFault(index); err != nil {
		p.Err = err.Error()
		return p
	}
	leads, err := c.selfEnergies(ws, b, er.Result, spec.Options)
	if err == nil {
		p.T, err = c.transmission(ws, er.Result.Energy, spec.Device, leads, spec.Options)
	}
	if err != nil {
		p.Err = err.Error()
		return p
	}
	p.Status = PointOK
	p.NOpen = leads.NOpen
	p.NFill = leads.NFill
	prof := transport.DecayProfileWith([]*core.Result{er.Result},
		transport.Options{PropagatingTol: spec.Options.PropagatingTol})
	if len(prof) == 1 {
		p.Beta = prof[0].Beta
	}
	return p
}
