package main

import "time"

// counters are the per-layer numbers a workload reads from the program's
// public accessors rather than from spans.
type counters struct {
	gpRefits, gpExtends, gpTargetSolves          int
	coreExploits, coreFitFailures, coreAcqFailed int
	sampledTicks, rejectedApplies                int
	// skippedNodeTicks and steppedNodeTicks split the fleet's busy
	// node-ticks into those deferred on idle promises and those stepped.
	skippedNodeTicks, steppedNodeTicks int
	cells                              int
}

// rdtOps are the platform calls the timing platform records.
var rdtOps = []op{opSample, opSampleFast, opSkipFast, opApply, opMeasureIsolated, opChurn}

// setPerLayer fills o with every per-layer metric. Layer times are shares
// of the traced pass's timed host time (trace.timed_s, the sum of its root
// spans), so they read as a profile; a layer the workload does not run
// reports zero calls and a zero share. Decide's latency percentiles go to
// the detail record.
func setPerLayer(o *outcome, rec *recorder, c counters, overheadPct float64) {
	ls := &rec.stats
	timed := ls.ops[opControlStep].busy + ls.ops[opFleetStep].busy + ls.ops[opSuite].busy
	share := func(d time.Duration) float64 { return ratio(d.Seconds(), timed.Seconds()) }
	var platformBusy time.Duration
	for _, x := range rdtOps {
		st := ls.ops[x]
		o.set(opNames[x]+".calls", float64(st.calls), "count")
		o.set(opNames[x]+".busy_share", share(st.busy), "ratio")
		platformBusy += st.busy
	}
	fast, skip, apply := ls.ops[opSampleFast], ls.ops[opSkipFast], ls.ops[opApply]
	o.set("rdt.sample_fast.hit_ratio", ratio(float64(fast.ok), float64(fast.calls)), "ratio")
	o.set("rdt.skip_fast.hit_ratio", ratio(float64(skip.ok), float64(skip.calls)), "ratio")
	o.set("rdt.apply.failed", float64(apply.calls-apply.ok), "count")

	var decide opStats
	for _, x := range []op{opDecideCore, opDecideOracle, opDecidePolicies} {
		st := ls.ops[x]
		o.set(opNames[x]+".busy_share", share(st.busy), "ratio")
		decide.calls += st.calls
		decide.ok += st.ok
		decide.busy += st.busy
		decide.durs = append(decide.durs, st.durs...)
	}
	o.set("policy.decide.calls", float64(decide.calls), "count")
	o.set("policy.decide.busy_share", share(decide.busy), "ratio")
	o.set("policy.decide.changed_ratio", ratio(float64(decide.ok), float64(decide.calls)), "ratio")
	if len(decide.durs) > 0 {
		o.detail["decide_p50_us"] = us(percentile(decide.durs, 50))
		o.detail["decide_p99_us"] = us(percentile(decide.durs, 99))
	}

	o.set("gp.refits", float64(c.gpRefits), "count")
	o.set("gp.extends", float64(c.gpExtends), "count")
	o.set("gp.target_solves", float64(c.gpTargetSolves), "count")
	o.set("core.exploits", float64(c.coreExploits), "count")
	o.set("core.fit_failures", float64(c.coreFitFailures), "count")
	o.set("core.acq_failures", float64(c.coreAcqFailed), "count")

	o.set("control.step.calls", float64(ls.ops[opControlStep].calls), "count")
	o.set("control.self_share", share(ls.self[opControlStep]), "ratio")
	o.set("control.sampled_ticks", float64(c.sampledTicks), "count")
	o.set("control.rejected_applies", float64(c.rejectedApplies), "count")

	if ls.ops[opFleetStep].calls == 0 {
		platformBusy = 0
	}
	o.set("fleet.step.calls", float64(ls.ops[opFleetStep].calls), "count")
	o.set("fleet.self_share", share(ls.self[opFleetStep]), "ratio")
	o.set("fleet.skip_ratio", ratio(float64(c.skippedNodeTicks), float64(c.skippedNodeTicks+c.steppedNodeTicks)), "ratio")
	o.set("fleet.platform_busy_share", share(platformBusy), "ratio")

	o.set("harness.cells", float64(c.cells), "count")

	o.set("trace.timed_s", timed.Seconds(), "s")
	o.set("trace.overhead_pct", overheadPct, "%")
	o.set("trace.spans_kept", float64(len(rec.spans)), "count")
}

// overheadPct is the traced run's extra host time over the untraced
// run's, in percent of the untraced time.
func overheadPct(traced, untraced time.Duration) float64 {
	return 100 * ratio(float64(traced-untraced), float64(untraced))
}

// minus returns the counts accumulated since b was read.
func (c counters) minus(b counters) counters {
	return counters{
		gpRefits: c.gpRefits - b.gpRefits, gpExtends: c.gpExtends - b.gpExtends, gpTargetSolves: c.gpTargetSolves - b.gpTargetSolves,
		coreExploits: c.coreExploits - b.coreExploits, coreFitFailures: c.coreFitFailures - b.coreFitFailures, coreAcqFailed: c.coreAcqFailed - b.coreAcqFailed,
		sampledTicks: c.sampledTicks - b.sampledTicks, rejectedApplies: c.rejectedApplies - b.rejectedApplies,
		skippedNodeTicks: c.skippedNodeTicks - b.skippedNodeTicks, steppedNodeTicks: c.steppedNodeTicks - b.steppedNodeTicks,
		cells: c.cells - b.cells,
	}
}
