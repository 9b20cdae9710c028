package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"satori/internal/fleet"
	"satori/internal/rdt"
	"satori/internal/sim"
	"satori/internal/workloads"
)

// fleet-churn: 10,000 event-driven nodes under the cheap parties policy,
// fed by an open-loop Poisson job stream. Host time goes to the
// simulator's detailed and sampled steps, the control loop's membership
// rebuilds and the fleet's placement and aggregation — the write path
// beside node-steady's read path. Arrivals follow simulated time, so the
// stream's rate does not depend on host speed; the host side is a closed
// loop of Cluster.Step calls.
const (
	fleetNodes   = 10000
	fleetShards  = 64
	fleetWorkers = 2
	// fleetArrivalRate is jobs per simulated second fleet-wide: 0.1 per
	// node per second, which with fleetServiceMean fills about 60% of
	// the fleet's fleetNodes × MaxJobsPerNode slots.
	fleetArrivalRate = 1000
	fleetServiceMean = 30
	// fleetWarmTicks is three mean service times: the running-job count
	// is within 5% of its steady level, and grows under 2% over the last
	// 10 simulated seconds, when timing starts.
	fleetWarmTicks = 900
	// fleetBuilds is how many fleets a run builds, each on its own seed
	// derived from the run's seed; set-up reports the median.
	fleetBuilds = 3
	// fleetTicksPerSecond sets the timed work: -seconds s times
	// fleetTicksPerSecond ticks split over the fleets, the same count on
	// every host (1,338 at 20 s, so the 99th percentile has 13 samples
	// beyond it).
	fleetTicksPerSecond = 67
	// fleetKeepEvery keeps the spans of every 25th traced tick; the
	// others are only aggregated (a tick makes thousands of spans).
	fleetKeepEvery = 25
)

// fleetRun is one fleet-churn run: build and warm the cluster, then time
// a fixed number of Cluster.Step calls.
type fleetRun struct {
	setup, timed      time.Duration
	lat               []time.Duration
	alloc             uint64
	summary           fleet.Summary
	skippedBefore     int // Summary.SkippedNodeTicks when timing started
	runningBefore     int // running jobs 100 ticks before timing started
	attempted, failed int
	problems          []string
}

// fingerprint renders the run's deterministic outputs.
func (r *fleetRun) fingerprint() string { return fmt.Sprintf("%+v", r.summary) }

func fleetChurnRun(seed uint64, timedTicks int, rec *recorder) (*fleetRun, error) {
	r := &fleetRun{}
	start := time.Now()
	opt := fleet.Options{
		Nodes:          fleetNodes,
		Policy:         "parties",
		Placer:         "least-loaded",
		Seed:           seed,
		MaxJobsPerNode: 5,
		Workers:        fleetWorkers,
		Shards:         fleetShards,
		EventDriven:    true,
		Stream: fleet.StreamOptions{
			ArrivalRate:  fleetArrivalRate,
			DurationMean: fleetServiceMean,
			Profiles:     append(workloads.PARSEC(), workloads.LC()...),
		},
	}
	var unwrapped atomic.Int64
	if rec != nil {
		opt.WrapPlatform = func(node int, p rdt.Platform) rdt.Platform {
			sp, ok := p.(*rdt.SimPlatform)
			if !ok {
				unwrapped.Add(1)
				return p
			}
			return &timedPlatform{SimPlatform: sp, rec: rec, node: node}
		}
	}
	c, err := fleet.New(opt)
	if err != nil {
		return nil, err
	}
	var stepErr error
	step := func() (fleet.TickStats, bool) {
		r.attempted++
		st, err := c.Step()
		if err != nil {
			r.failed++
			stepErr = err
			return st, false
		}
		return st, true
	}
	for i := 0; i < fleetWarmTicks && stepErr == nil; i++ {
		if st, ok := step(); ok && i == fleetWarmTicks-100 {
			r.runningBefore = st.Running
		}
	}
	r.setup = time.Since(start)
	r.skippedBefore = c.Summary().SkippedNodeTicks

	r.lat = make([]time.Duration, 0, timedTicks)
	if rec != nil {
		rec.enabled.Store(true)
	}
	a0 := totalAlloc()
	for i := 0; i < timedTicks && stepErr == nil; i++ {
		if rec != nil {
			rec.open(opFleetStep, c.Ticks()+1, rec.now())
		}
		t := time.Now()
		_, ok := step()
		d := time.Since(t)
		if rec != nil {
			rec.close(rec.now())
		}
		if ok {
			r.lat = append(r.lat, d)
			r.timed += d
		}
	}
	r.alloc = totalAlloc() - a0
	if rec != nil {
		rec.enabled.Store(false)
	}

	s := c.Summary()
	r.summary = s
	if stepErr != nil {
		r.problems = append(r.problems, fmt.Sprintf("Cluster.Step failed at tick %d (halted: %t): %v",
			c.Ticks(), errors.Is(stepErr, fleet.ErrHalted), stepErr))
	}
	if n := unwrapped.Load(); n > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d node platforms were not *rdt.SimPlatform and went untimed", n))
	}
	if s.Arrived != s.Placed+s.Queued {
		r.problems = append(r.problems, fmt.Sprintf("arrived %d != placed %d + queued %d", s.Arrived, s.Placed, s.Queued))
	}
	if s.Placed != s.Departed+s.Running {
		r.problems = append(r.problems, fmt.Sprintf("placed %d != departed %d + running %d", s.Placed, s.Departed, s.Running))
	}
	if s.SkippedNodeTicks == 0 {
		r.problems = append(r.problems, "no node-tick was skipped: the event-driven path did not run")
	}
	if s.LCTicks == 0 {
		r.problems = append(r.problems, "no tick tracked a latency-critical job: the SLO path did not run")
	}
	return r, nil
}

// fleetTimedTicks is the timed tick count of each of a run's fleets.
func fleetTimedTicks(seconds float64) int {
	return max(1, int(seconds*fleetTicksPerSecond)/fleetBuilds)
}

func runFleetChurn(cfg config) (*outcome, error) {
	o := newOutcome()
	if cfg.trace {
		return traceFleetChurn(cfg, o)
	}
	var setups, lat []time.Duration
	var timed time.Duration
	var alloc uint64
	var thr, fair, slo float64
	var summaries []string
	var runningBefore []int
	for k := 0; k < fleetBuilds; k++ {
		runtime.GC() // release the previous fleet before building the next
		r, err := fleetChurnRun(subSeed(cfg.seed, k), fleetTimedTicks(cfg.seconds), nil)
		if err != nil {
			return nil, err
		}
		o.problems = append(o.problems, r.problems...)
		o.attempted += r.attempted
		o.failed += r.failed
		setups = append(setups, r.setup)
		lat = append(lat, r.lat...)
		timed += r.timed
		alloc += r.alloc
		thr += r.summary.MeanGeoMean / fleetBuilds
		fair += r.summary.MeanJain / fleetBuilds
		slo += r.summary.MeanSLOAttainment / fleetBuilds
		summaries = append(summaries, r.summary.String())
		runningBefore = append(runningBefore, r.runningBefore)
	}
	ticks := len(lat)
	o.set("setup_s", medianDuration(setups).Seconds(), "s")
	o.set("tick_p50_us", us(percentile(lat, 50)), "us")
	o.set("tick_p99_us", us(percentile(lat, 99)), "us")
	o.set("sim_s_per_host_s", float64(ticks)*sim.TickSeconds/timed.Seconds(), "s/s")
	o.set("objective", 0.5*thr+0.5*fair, "ratio")
	o.set("throughput", thr, "ratio")
	o.set("fairness", fair, "ratio")
	o.set("slo_attainment", slo, "ratio")
	o.set("ok_frac", 1-ratio(float64(o.failed), float64(o.attempted)), "ratio")
	o.set("alloc_kb_per_tick", float64(alloc)/1024/float64(max(ticks, 1)), "KiB")
	o.detail["peak_rss_mb"] = peakRSSMB()
	o.detail["timed_ticks"] = ticks
	o.detail["summaries"] = summaries
	o.detail["running_100_ticks_before_timing"] = runningBefore
	return o, nil
}

// traceFleetChurn runs the first fleet untraced and then traced on the
// same seed, checks their outputs agree, and reports the traced run's
// per-layer metrics over its timed ticks.
func traceFleetChurn(cfg config, o *outcome) (*outcome, error) {
	seed, ticks := subSeed(cfg.seed, 0), fleetTimedTicks(cfg.seconds)
	plain, err := fleetChurnRun(seed, ticks, nil)
	if err != nil {
		return nil, err
	}
	plainFP := plain.fingerprint()
	o.problems = append(o.problems, plain.problems...)
	o.attempted, o.failed = plain.attempted, plain.failed
	plainTimed := plain.timed
	runtime.GC() // release the first cluster (plain is dead) before building the second

	rec := newRecorder(fleetKeepEvery)
	traced, err := fleetChurnRun(seed, ticks, rec)
	if err != nil {
		return nil, err
	}
	if fp := traced.fingerprint(); fp != plainFP {
		o.problem("traced outputs differ from untraced:\n  traced   %s\n  untraced %s", fp, plainFP)
	}
	o.problems = append(o.problems, traced.problems...)
	o.attempted += traced.attempted
	o.failed += traced.failed
	// A good Loop.Step applies its decision exactly once and catch-up
	// replays never apply, so Apply calls count the stepped node-ticks.
	c := counters{
		skippedNodeTicks: traced.summary.SkippedNodeTicks - traced.skippedBefore,
		steppedNodeTicks: rec.stats.ops[opApply].calls,
	}
	setPerLayer(o, rec, c, overheadPct(traced.timed, plainTimed))
	o.detail["summary"] = traced.summary.String()
	o.detail["spans"] = writeSpansFile(cfg, rec.spans)
	return o, nil
}
