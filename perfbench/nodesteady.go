package main

import (
	"fmt"
	"path/filepath"
	"time"

	"satori/internal/control"
	"satori/internal/core"
	"satori/internal/harness"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/sim"
	"satori/internal/workloads"
)

// node-steady: one node of the paper's testbed running PARSEC paper mix 0
// under per-job SATORI, driven through control.Loop in lockstep (sampling
// off, the Session default) with fixed membership. One goroutine calls
// Step back to back — a closed loop, as satorid runs with -tick 0.
//
// A run is many rounds, each a fresh loop on its own seed derived from
// the run's seed. Every metric pools or averages the rounds: one engine's
// scores, allocations and tick times depend on which configurations its
// search visits, so one seed's differ from the next by up to a third.
const (
	// nodeWarmTicks fill the engine's observation window (64 distinct
	// configurations) and cross the first equalization boundaries
	// before timing starts; they are part of set-up.
	nodeWarmTicks = 200
	// nodeTimedTicks are timed per round.
	nodeTimedTicks = 1000
	// nodeSeedsPerSecond sets the rounds per run; one round takes about
	// 0.5–1 s on a 2-CPU Xeon VM.
	nodeSeedsPerSecond = 2.5
)

// nodeSeeds is the number of seeds a run of the given length runs.
func nodeSeeds(seconds float64) int { return max(2, int(seconds*nodeSeedsPerSecond)) }

// subSeed derives round k's seed from the run's seed (splitmix64).
func subSeed(seed uint64, k int) uint64 {
	x := seed + 0x9E3779B97F4A7C15*uint64(k+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// nodeRound is one round: build the loop, warm it, then time
// nodeTimedTicks back-to-back Steps.
type nodeRound struct {
	setup, timed      time.Duration
	lat               []time.Duration
	alloc             uint64
	summary           control.Summary
	engine            counters // over the timed ticks
	attempted, failed int
	problems          []string
}

// fingerprint renders the round's deterministic outputs; equal seeds
// must give equal fingerprints, traced or not.
func (r *nodeRound) fingerprint() string {
	return fmt.Sprintf("%+v %+v", r.summary, r.engine)
}

// engineCounters reads the engine's and the loop's cumulative counters.
func engineCounters(e *core.Engine, s control.Summary) counters {
	gs := e.GPStats()
	return counters{
		gpRefits: gs.Refits, gpExtends: gs.Extends, gpTargetSolves: gs.TargetSolves,
		coreExploits: e.Exploits(), coreFitFailures: e.FitFailures(), coreAcqFailed: e.AcquisitionFailures(),
		sampledTicks: s.SampledTicks, rejectedApplies: s.RejectedApplies,
	}
}

func nodeSteadyRound(seed uint64, rec *recorder) (*nodeRound, error) {
	r := &nodeRound{}
	start := time.Now()
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		return nil, err
	}
	simulator, err := sim.New(sim.DefaultMachine(), mixes[0].Profiles, sim.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	plat, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		return nil, err
	}
	var loopPlatform rdt.Platform = plat
	if rec != nil {
		loopPlatform = &timedPlatform{SimPlatform: plat, rec: rec}
	}
	factory := harness.SatoriFactory(core.Options{})
	var engine *core.Engine
	loop, err := control.New(control.Options{
		Platform: loopPlatform,
		Policy: func(rdt.Platform) (policy.Policy, error) {
			pol, err := factory(plat, seed)
			if err != nil {
				return nil, err
			}
			engine, _ = pol.(*core.Engine)
			if rec != nil {
				pol = &timedPolicy{inner: pol, rec: rec, op: opDecideCore}
			}
			return pol, nil
		},
	})
	if err != nil {
		return nil, err
	}
	if engine == nil {
		return nil, fmt.Errorf("satori factory built %T, want *core.Engine", loop.Policy())
	}
	var badScore, badIsolated int
	check := func(st control.Status) {
		r.attempted++
		if st.Degraded || st.BadSample || st.RejectedApply != nil || st.ResetErr != nil {
			r.failed++
		}
		if !inUnit(st.Throughput) || !inUnit(st.Fairness) {
			badScore++
		}
		if len(loop.Isolated()) != loop.NumJobs() {
			badIsolated++
		}
	}
	for i := 0; i < nodeWarmTicks; i++ {
		st, err := loop.Step()
		if err != nil {
			return nil, fmt.Errorf("warm-up tick %d: %w", i+1, err)
		}
		check(st)
	}
	r.setup = time.Since(start)
	before := engineCounters(engine, loop.Summary())

	r.lat = make([]time.Duration, 0, nodeTimedTicks)
	if rec != nil {
		rec.enabled.Store(true)
	}
	a0 := totalAlloc()
	for i := 0; i < nodeTimedTicks; i++ {
		if rec != nil {
			rec.open(opControlStep, loop.Ticks()+1, rec.now())
		}
		t := time.Now()
		st, err := loop.Step()
		d := time.Since(t)
		if rec != nil {
			rec.close(rec.now())
		}
		if err != nil {
			return nil, fmt.Errorf("tick %d: %w", loop.Ticks(), err)
		}
		r.lat = append(r.lat, d)
		r.timed += d
		check(st)
	}
	r.alloc = totalAlloc() - a0
	if rec != nil {
		rec.enabled.Store(false)
	}

	r.summary = loop.Summary()
	r.engine = engineCounters(engine, r.summary).minus(before)
	if r.summary.Ticks != nodeWarmTicks+nodeTimedTicks {
		r.problems = append(r.problems, fmt.Sprintf("loop counted %d ticks, want %d", r.summary.Ticks, nodeWarmTicks+nodeTimedTicks))
	}
	if badScore > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d ticks scored outside [0,1]", badScore))
	}
	if badIsolated > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d ticks with len(Isolated()) != NumJobs()", badIsolated))
	}
	return r, nil
}

func runNodeSteady(cfg config) (*outcome, error) {
	o := newOutcome()
	if cfg.trace {
		return traceNodeSteady(cfg, o)
	}
	n := nodeSeeds(cfg.seconds)
	rounds := make([]*nodeRound, 0, n)
	var setups, lat, p99s []time.Duration
	var timed time.Duration
	var alloc uint64
	var obj, thr, fair float64
	for k := 0; k < n; k++ {
		r, err := nodeSteadyRound(subSeed(cfg.seed, k), nil)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		o.problems = append(o.problems, r.problems...)
		o.attempted += r.attempted
		o.failed += r.failed
		setups = append(setups, r.setup)
		lat = append(lat, r.lat...)
		p99s = append(p99s, percentile(r.lat, 99))
		timed += r.timed
		alloc += r.alloc
		obj += r.summary.MeanObjective / float64(n)
		thr += r.summary.MeanThroughput / float64(n)
		fair += r.summary.MeanFairness / float64(n)
	}
	// The first seed runs again and must reproduce its outputs exactly.
	again, err := nodeSteadyRound(subSeed(cfg.seed, 0), nil)
	if err != nil {
		return nil, err
	}
	if again.fingerprint() != rounds[0].fingerprint() {
		o.problem("seed 0 ran twice with different outputs:\n  %s\n  %s", rounds[0].fingerprint(), again.fingerprint())
	}
	o.problems = append(o.problems, again.problems...)
	o.attempted += again.attempted
	o.failed += again.failed

	o.set("setup_s", medianDuration(setups).Seconds(), "s")
	o.set("tick_p50_us", us(percentile(lat, 50)), "us")
	// The tail is each round's 99th percentile (ten ticks beyond it),
	// then the median over rounds: a burst of interference from outside
	// the VM lasting a few rounds moves it no more than a seed does.
	o.set("tick_p99_us", us(medianDuration(p99s)), "us")
	o.set("sim_s_per_host_s", float64(len(lat))*control.TickSeconds/timed.Seconds(), "s/s")
	o.set("objective", obj, "ratio")
	o.set("throughput", thr, "ratio")
	o.set("fairness", fair, "ratio")
	// Mix 0 is batch-only. With no latency-critical job there is no
	// request to miss its SLO: 1, as the fleet reports for such nodes.
	o.set("slo_attainment", 1, "ratio")
	o.set("ok_frac", 1-ratio(float64(o.failed), float64(o.attempted)), "ratio")
	o.set("alloc_kb_per_tick", float64(alloc)/1024/float64(len(lat)), "KiB")
	o.detail["peak_rss_mb"] = peakRSSMB()
	o.detail["seeds"] = n
	o.detail["timed_ticks"] = len(lat)
	return o, nil
}

// traceNodeSteady runs round 0 untraced and then traced, checks their
// outputs agree, and reports the traced round's per-layer metrics.
func traceNodeSteady(cfg config, o *outcome) (*outcome, error) {
	seed := subSeed(cfg.seed, 0)
	plain, err := nodeSteadyRound(seed, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(1)
	traced, err := nodeSteadyRound(seed, rec)
	if err != nil {
		return nil, err
	}
	if plain.fingerprint() != traced.fingerprint() {
		o.problem("traced outputs differ from untraced:\n  traced   %s\n  untraced %s", traced.fingerprint(), plain.fingerprint())
	}
	o.problems = append(o.problems, plain.problems...)
	o.problems = append(o.problems, traced.problems...)
	o.attempted = plain.attempted + traced.attempted
	o.failed = plain.failed + traced.failed
	setPerLayer(o, rec, traced.engine, overheadPct(traced.timed, plain.timed))
	o.detail["summary"] = traced.summary.String()
	o.detail["spans"] = writeSpansFile(cfg, rec.spans)
	return o, nil
}

// writeSpansFile writes a traced run's spans and returns the path, or
// why they were not written (the metrics stay valid either way).
func writeSpansFile(cfg config, spans []span) string {
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.csv.gz", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return "not written: " + err.Error()
	}
	return path
}
