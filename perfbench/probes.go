package main

import (
	"fmt"
	"sync"
	"time"

	"satori/internal/core"
	"satori/internal/harness"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/sim"
)

// timedPlatform times every call the control loop makes into the rdt/sim
// layer. It embeds *rdt.SimPlatform so the loop still discovers every
// optional capability by type assertion: a wrapper that held a plain
// rdt.Platform would hide Churner (fleet admission fails), FastSampler
// (the loop silently drops sampled extrapolation) and the rest.
type timedPlatform struct {
	*rdt.SimPlatform
	rec  *recorder
	node int
}

// The timing platform must offer every capability *rdt.SimPlatform does.
var (
	_ rdt.Platform     = (*timedPlatform)(nil)
	_ rdt.Churner      = (*timedPlatform)(nil)
	_ rdt.FastSampler  = (*timedPlatform)(nil)
	_ rdt.BatchSampler = (*timedPlatform)(nil)
	_ rdt.SLOProvider  = (*timedPlatform)(nil)
	_ rdt.Grouper      = (*timedPlatform)(nil)
	_ rdt.CLOSLimiter  = (*timedPlatform)(nil)
)

func (p *timedPlatform) Sample() ([]float64, error) {
	if !p.rec.on() {
		return p.SimPlatform.Sample()
	}
	t := p.rec.now()
	v, err := p.SimPlatform.Sample()
	p.rec.add(opSample, t, p.rec.now(), -1, p.node, err == nil)
	return v, err
}

func (p *timedPlatform) SampleFast() ([]float64, bool) {
	if !p.rec.on() {
		return p.SimPlatform.SampleFast()
	}
	t := p.rec.now()
	v, ok := p.SimPlatform.SampleFast()
	p.rec.add(opSampleFast, t, p.rec.now(), -1, p.node, ok)
	return v, ok
}

func (p *timedPlatform) SkipFast(n int) bool {
	if !p.rec.on() {
		return p.SimPlatform.SkipFast(n)
	}
	t := p.rec.now()
	ok := p.SimPlatform.SkipFast(n)
	p.rec.add(opSkipFast, t, p.rec.now(), -1, p.node, ok)
	return ok
}

func (p *timedPlatform) Apply(c resource.Config) error {
	if !p.rec.on() {
		return p.SimPlatform.Apply(c)
	}
	t := p.rec.now()
	err := p.SimPlatform.Apply(c)
	p.rec.add(opApply, t, p.rec.now(), -1, p.node, err == nil)
	return err
}

func (p *timedPlatform) MeasureIsolated() ([]float64, error) {
	if !p.rec.on() {
		return p.SimPlatform.MeasureIsolated()
	}
	t := p.rec.now()
	v, err := p.SimPlatform.MeasureIsolated()
	p.rec.add(opMeasureIsolated, t, p.rec.now(), -1, p.node, err == nil)
	return v, err
}

// churn times one membership change.
func (p *timedPlatform) churn(fn func() error) error {
	if !p.rec.on() {
		return fn()
	}
	t := p.rec.now()
	err := fn()
	p.rec.add(opChurn, t, p.rec.now(), -1, p.node, err == nil)
	return err
}

func (p *timedPlatform) AddJob(prof *sim.Profile) error {
	return p.churn(func() error { return p.SimPlatform.AddJob(prof) })
}

func (p *timedPlatform) RemoveJob(j int) error {
	return p.churn(func() error { return p.SimPlatform.RemoveJob(j) })
}

func (p *timedPlatform) ReplaceJob(j int, prof *sim.Profile) error {
	return p.churn(func() error { return p.SimPlatform.ReplaceJob(j, prof) })
}

// timedPolicy times Decide. It forwards the optional policy capabilities
// the program probes for — the migration counter control.Loop reads and
// the weight reporter harness.Run reads — so wrapping changes no
// decision. When the wrapped policy lacks one, the forwarded method
// returns the zero value, which both readers treat as "nothing to
// report" (no migrations; trace columns only when KeepTrace is set).
type timedPolicy struct {
	inner policy.Policy
	rec   *recorder
	op    op
	cell  int
	clock *tickClock // nil outside suite cells
}

// Name forwards the wrapped policy's name, which results tables print.
func (p *timedPolicy) Name() string { return p.inner.Name() }

// Decide times the wrapped policy's decision.
func (p *timedPolicy) Decide(obs policy.Observation, current resource.Config) resource.Config {
	if p.clock != nil {
		p.clock.starts = append(p.clock.starts, time.Since(p.clock.epoch))
	}
	if !p.rec.on() {
		return p.inner.Decide(obs, current)
	}
	t := p.rec.now()
	next := p.inner.Decide(obs, current)
	p.rec.add(p.op, t, p.rec.now(), obs.Tick, p.cell, !next.Equal(current))
	return next
}

// Regroups forwards the cluster-migration counter.
func (p *timedPolicy) Regroups() int {
	if r, ok := p.inner.(interface{ Regroups() int }); ok {
		return r.Regroups()
	}
	return 0
}

// weightReporter is the SATORI engine's instrumentation surface.
type weightReporter interface {
	LastWeights() core.Weights
	LastObjective() float64
	ProxyChange() float64
}

// LastWeights forwards the engine's weight decomposition.
func (p *timedPolicy) LastWeights() core.Weights {
	if w, ok := p.inner.(weightReporter); ok {
		return w.LastWeights()
	}
	return core.Weights{}
}

// LastObjective forwards the engine's last observed objective.
func (p *timedPolicy) LastObjective() float64 {
	if w, ok := p.inner.(weightReporter); ok {
		return w.LastObjective()
	}
	return 0
}

// ProxyChange forwards the engine's proxy-model change.
func (p *timedPolicy) ProxyChange() float64 {
	if w, ok := p.inner.(weightReporter); ok {
		return w.ProxyChange()
	}
	return 0
}

// tickClock records when each Decide of one suite cell starts. The
// harness calls Decide once per tick, so the gaps between consecutive
// starts are the cell's per-tick host times.
type tickClock struct {
	epoch  time.Time
	kind   op     // the layer the cell's Decide time is attributed to
	key    string // policy name and cell seed: equal in every suite of one seed
	starts []time.Duration
}

// gaps returns the intervals between consecutive Decide starts.
func (c *tickClock) gaps() []time.Duration {
	if len(c.starts) < 2 {
		return nil
	}
	out := make([]time.Duration, len(c.starts)-1)
	for i := range out {
		out[i] = c.starts[i+1] - c.starts[i]
	}
	return out
}

// cellRegistry numbers suite cells as the harness builds their policies
// and keeps each cell's tick clock. Cells are built on the suite's worker
// goroutines, so registration is serialized.
type cellRegistry struct {
	epoch  time.Time
	mu     sync.Mutex
	clocks []*tickClock
}

func newCellRegistry() *cellRegistry { return &cellRegistry{epoch: time.Now()} }

// add registers a new cell of the given kind and key and returns its
// number and clock.
func (c *cellRegistry) add(kind op, key string) (int, *tickClock) {
	clk := &tickClock{epoch: c.epoch, kind: kind, key: key}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clocks = append(c.clocks, clk)
	return len(c.clocks) - 1, clk
}

// timedFactories wraps each factory so every policy it builds is clocked
// into cells and, while rec is on, timed under the op decideKind assigns
// its name.
func timedFactories(lineup []harness.NamedFactory, rec *recorder, cells *cellRegistry) []harness.NamedFactory {
	out := make([]harness.NamedFactory, len(lineup))
	for i, nf := range lineup {
		f, o := nf.Factory, decideKind(nf.Name)
		out[i] = harness.NamedFactory{Name: nf.Name, Factory: func(p *rdt.SimPlatform, seed uint64) (policy.Policy, error) {
			inner, err := f(p, seed)
			if err != nil {
				return nil, err
			}
			cell, clk := cells.add(o, fmt.Sprintf("%s/%d", nf.Name, seed))
			return &timedPolicy{inner: inner, rec: rec, op: o, cell: cell, clock: clk}, nil
		}}
	}
	return out
}
