package main

import (
	"testing"
	"time"

	"satori/internal/control"
	"satori/internal/core"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/sim"
	"satori/internal/workloads"
)

func TestUnionWithinOverlappingWorkers(t *testing.T) {
	// Two workers' children overlap each other; one child spills past
	// the root's end and one lies wholly outside it.
	children := [][2]int64{{10, 30}, {20, 50}, {60, 70}, {65, 68}, {95, 120}, {130, 140}}
	if got, want := unionWithin(children, 0, 100), int64(40+10+5); got != want {
		t.Fatalf("union = %d, want %d", got, want)
	}
	if got := unionWithin(nil, 0, 100); got != 0 {
		t.Fatalf("empty union = %d, want 0", got)
	}
}

func TestRecorderSelfTimeAndKeep(t *testing.T) {
	r := newRecorder(2)
	r.open(opFleetStep, 1, 0)
	r.add(opSample, 10, 30, -1, 1, true)
	r.add(opSample, 20, 50, -1, 2, true)
	r.add(opApply, 60, 70, -1, 1, false)
	r.close(100)
	r.open(opFleetStep, 2, 200)
	r.add(opSampleFast, 210, 220, -1, 1, true)
	r.add(opSampleFast, 215, 225, -1, 2, false)
	r.close(260)
	// Tick 1: 100 - |[10,50] ∪ [60,70]| = 50. Tick 2: 60 - |[210,225]| = 45.
	ls := r.stats
	if got, want := ls.self[opFleetStep], time.Duration(95); got != want {
		t.Errorf("fleet self = %v, want %v", got, want)
	}
	if st := ls.ops[opFleetStep]; st.calls != 2 || st.busy != 160 {
		t.Errorf("fleet stats = %+v", st)
	}
	if st := ls.ops[opSample]; st.calls != 2 || st.busy != 50 || st.ok != 2 {
		t.Errorf("sample stats = %+v", st)
	}
	if st := ls.ops[opSampleFast]; st.calls != 2 || st.ok != 1 {
		t.Errorf("sample_fast stats = %+v", st)
	}
	if st := ls.ops[opApply]; st.calls != 1 || st.ok != 0 {
		t.Errorf("apply stats = %+v", st)
	}
	// keepEvery 2 keeps both roots but only the first root's children.
	if len(r.spans) != 5 {
		t.Fatalf("kept %d spans, want 5", len(r.spans))
	}
	for _, s := range r.spans[1:4] {
		if s.parent != 0 || s.tick != 1 {
			t.Errorf("child %+v: want parent 0, tick 1", s)
		}
	}
}

// newMixLoop builds a control loop over PARSEC mix 0 with sampling on,
// optionally through the timing platform.
func newMixLoop(t *testing.T, rec *recorder) *control.Loop {
	t.Helper()
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.DefaultMachine(), mixes[0].Profiles, sim.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	plat, err := rdt.NewSimPlatform(s)
	if err != nil {
		t.Fatal(err)
	}
	var lp rdt.Platform = plat
	if rec != nil {
		lp = &timedPlatform{SimPlatform: plat, rec: rec}
	}
	loop, err := control.New(control.Options{
		Platform: lp,
		Policy:   func(rdt.Platform) (policy.Policy, error) { return policy.Static{}, nil },
		Sampling: control.SamplingOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return loop
}

// TestTimedPlatformKeepsCapabilities checks the loop still finds the
// sampled-simulation and churn capabilities through the timing platform,
// and that timing changes no output.
func TestTimedPlatformKeepsCapabilities(t *testing.T) {
	rec := newRecorder(1)
	rec.enabled.Store(true)
	bare, timed := newMixLoop(t, nil), newMixLoop(t, rec)
	extra := workloads.PARSEC()[0]
	for _, loop := range []*control.Loop{bare, timed} {
		if _, err := loop.Run(150); err != nil {
			t.Fatal(err)
		}
		if err := loop.AddJob(extra); err != nil {
			t.Fatalf("AddJob through %T: %v", loop.Platform(), err)
		}
		if _, err := loop.Run(50); err != nil {
			t.Fatal(err)
		}
	}
	if b, w := bare.Summary(), timed.Summary(); b != w {
		t.Fatalf("timed summary %+v differs from bare %+v", w, b)
	}
	if timed.Summary().SampledTicks == 0 {
		t.Fatal("no sampled ticks through the timing platform")
	}
	ls := rec.stats
	if ls.ops[opSampleFast].ok == 0 || ls.ops[opChurn].calls != 1 || ls.ops[opMeasureIsolated].calls == 0 {
		t.Fatalf("spans missed calls: sample_fast=%+v churn=%+v measure=%+v",
			ls.ops[opSampleFast], ls.ops[opChurn], ls.ops[opMeasureIsolated])
	}
}

func TestTimedPolicyForwards(t *testing.T) {
	m := sim.DefaultMachine()
	space, err := m.Space(3)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.New(space, core.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(1)
	rec.enabled.Store(true)
	p := &timedPolicy{inner: engine, rec: rec, op: opDecideCore}
	if p.Name() != engine.Name() {
		t.Fatalf("Name = %q, want %q", p.Name(), engine.Name())
	}
	cur := space.EqualSplit()
	for tick := 1; tick <= 20; tick++ {
		obs := policy.Observation{
			Tick: tick, IPS: []float64{1e9, 2e9, 3e9}, Isolated: []float64{2e9, 3e9, 4e9},
			Speedups: []float64{0.5, 0.67, 0.75}, Throughput: 0.6, Fairness: 0.9, BaselineReset: tick == 1,
		}
		cur = p.Decide(obs, cur)
	}
	if p.LastWeights() != engine.LastWeights() || p.LastObjective() != engine.LastObjective() || p.ProxyChange() != engine.ProxyChange() {
		t.Fatal("weight reporter not forwarded")
	}
	if got := rec.stats.ops[opDecideCore].calls; got != 20 {
		t.Fatalf("recorded %d decide spans, want 20", got)
	}

	clustered := &timedPolicy{inner: regroupingPolicy{n: 3}, rec: rec, op: opDecidePolicies}
	if got := clustered.Regroups(); got != 3 {
		t.Fatalf("Regroups = %d, want 3", got)
	}
	plain := &timedPolicy{inner: policy.Static{}, rec: rec, op: opDecidePolicies}
	if plain.Regroups() != 0 || plain.LastWeights() != (core.Weights{}) {
		t.Fatal("capabilities the wrapped policy lacks must read as zero")
	}
}

// regroupingPolicy is a static policy that reports cluster migrations.
type regroupingPolicy struct {
	policy.Static
	n int
}

func (r regroupingPolicy) Regroups() int { return r.n }
