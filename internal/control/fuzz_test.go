package control

import (
	"errors"
	"math"
	"testing"
	"time"

	"satori/internal/metrics"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/sim"
	"satori/internal/stats"
	"satori/internal/workloads"
)

// FuzzLoopChurnUnderFaults is a model-based test of membership churn
// composed with platform faults. The input decodes into a fault script
// (scripted faults plus seeded random rates), the loop's resilience and
// sampling knobs, and a sequence of Step / AddJob / RemoveJob /
// ReplaceJob / SetObjectives / RefreshBaselines / SkipIdle operations.
// The invariants:
//   - no panic, and never a stale-shaped decision;
//   - every scored tick is scored against one baseline per live job;
//   - with no fatal fault, the Summary fault counters reconcile with the
//     injector's ground truth (exactly when the breaker is off).
//
// The seed corpus runs under plain go test; go test -fuzz explores more.
func FuzzLoopChurnUnderFaults(f *testing.F) {
	// The owed-rebuild repro: measure errors straddling an AddJob.
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 0, 0, 0, 0, 0, 3, 5, 0, 0, 0, 0, 0})
	// Long deterministic random programs, cycling through every
	// combination of the retry, breaker, sampling and policy flags.
	rng := stats.NewRNG(13)
	for i := 0; i < 32; i++ {
		data := make([]byte, 400)
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		data[0] = byte(i % 16)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runChurnFaultModel(t, data)
	})
}

// byteStream hands out the fuzz input one byte at a time, then zeros.
type byteStream []byte

func (b *byteStream) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

func runChurnFaultModel(t *testing.T, data []byte) {
	in := byteStream(data)
	flags := in.next()
	retries, breaker, sampling := flags&1 != 0, flags&2 != 0, flags&4 != 0
	// A static policy lets phase stability arm sampled extrapolation; a
	// random one moves the partition every tick.
	build := func(p rdt.Platform) (policy.Policy, error) { return policy.NewRandom(p.Space(), 5), nil }
	if flags&8 != 0 {
		build = func(rdt.Platform) (policy.Policy, error) { return policy.Static{}, nil }
	}

	var script rdt.FaultScript
	kinds := []rdt.FaultKind{rdt.FaultError, rdt.FaultNaN, rdt.FaultNegative, rdt.FaultLatency, rdt.FaultFatal}
	for n := in.next() % 5; n > 0; n-- {
		f := rdt.Fault{
			Op:   rdt.FaultOp(in.next() % 4),
			Kind: kinds[in.next()%len(kinds)],
		}
		if (f.Kind == rdt.FaultNaN || f.Kind == rdt.FaultNegative) && f.Op != rdt.OpSample {
			f.Kind = rdt.FaultError
		}
		f.Call = 1 + in.next()%40
		f.Repeat = 1 + in.next()%4
		script.Faults = append(script.Faults, f)
	}
	rate := func() float64 { return float64(in.next()%64) / 256 }
	script.ApplyErrorRate, script.SampleErrorRate, script.SampleCorruptRate = rate(), rate(), rate()
	script.MeasureErrorRate = rate()
	script.Seed = uint64(in.next()) + 1
	script.Sleep = func(time.Duration) {}

	pool := append(workloads.PARSEC(), workloads.LC()...)
	simulator, err := sim.New(sim.DefaultMachine(), pool[:3], sim.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := rdt.NewFaultInjector(inner, script)
	if err != nil {
		t.Fatal(err)
	}
	resil := ResilienceOptions{MaxRetries: -1, BreakerThreshold: -1}
	if retries {
		resil.MaxRetries = 2
	}
	if breaker {
		resil.BreakerThreshold = 3
	}
	loop, err := New(Options{
		Platform:           fi,
		Policy:             build,
		BaselineResetTicks: 7,
		Sampling:           SamplingOptions{Enabled: sampling, StableTicks: 2},
		Resilience:         resil,
	})
	if err != nil {
		return // the construction-time measurement failed; nothing to drive
	}

	// returned counts failed measurements the loop handed back to the
	// caller instead of absorbing into ResetErrs.
	returned := 0
	check := func(op string, err error) {
		t.Helper()
		var stale *StaleDecisionError
		if errors.As(err, &stale) {
			t.Fatalf("%s: stale-shaped decision: %v", op, err)
		}
	}
	tms := []metrics.ThroughputMetric{metrics.GeoMeanSpeedup, metrics.HarmonicMeanSpeedup, metrics.SumIPS, metrics.P99Latency}
	fms := []metrics.FairnessMetric{metrics.JainIndex, metrics.OneMinusCoV, metrics.SLOAttainment}
	for ops := 0; len(in) > 0 && ops < 200; ops++ {
		switch in.next() % 9 {
		case 0, 1, 2:
			before := loop.Ticks()
			st, err := loop.Step()
			check("Step", err)
			if err != nil {
				if rdt.IsTransient(err) {
					t.Fatalf("Step returned a transient error: %v", err)
				}
				continue
			}
			if st.Tick != before+1 || loop.Ticks() != st.Tick {
				t.Fatalf("Step advanced tick %d to %d (loop says %d)", before, st.Tick, loop.Ticks())
			}
			if st.Speedups != nil {
				n := loop.NumJobs()
				if len(st.IPS) != n || len(st.Isolated) != n || len(st.Speedups) != n || len(loop.Isolated()) != n {
					t.Fatalf("tick %d scored with ips %d isolated %d speedups %d loop isolated %d for %d jobs",
						st.Tick, len(st.IPS), len(st.Isolated), len(st.Speedups), len(loop.Isolated()), n)
				}
				if math.IsNaN(st.Throughput) || math.IsNaN(st.Fairness) {
					t.Fatalf("tick %d scored NaN: T=%v F=%v", st.Tick, st.Throughput, st.Fairness)
				}
			}
			if got := len(st.Config.Alloc[0]); got != loop.NumJobs() {
				t.Fatalf("tick %d: status partition spans %d jobs, live %d", st.Tick, got, loop.NumJobs())
			}
		case 3:
			p := pool[in.next()%len(pool)]
			if loop.NumJobs() < 6 {
				err := loop.AddJob(p)
				check("AddJob", err)
				if rdt.IsTransient(err) {
					t.Fatalf("AddJob returned a transient error after committing: %v", err)
				}
			}
		case 4:
			j := in.next() % loop.NumJobs()
			if loop.NumJobs() > 1 {
				err := loop.RemoveJob(j)
				check("RemoveJob", err)
				if rdt.IsTransient(err) {
					t.Fatalf("RemoveJob returned a transient error after committing: %v", err)
				}
			}
		case 5:
			j := in.next() % loop.NumJobs()
			err := loop.ReplaceJob(j, pool[in.next()%len(pool)])
			check("ReplaceJob", err)
			if rdt.IsTransient(err) {
				t.Fatalf("ReplaceJob returned a transient error after committing: %v", err)
			}
		case 6:
			loop.SetObjectives(tms[in.next()%len(tms)], fms[in.next()%len(fms)])
		case 7:
			err := loop.RefreshBaselines()
			check("RefreshBaselines", err)
			if rdt.IsTransient(err) {
				returned++
			}
		case 8:
			if h := loop.IdleHorizon(); h > 0 {
				check("SkipIdle", loop.SkipIdle(1+in.next()%h))
			}
		}
	}

	// Reconcile the loop's fault counters with the injector's ground
	// truth. A fatal fault can land in a counter the script cannot
	// attribute (the periodic refresh absorbs any failure), so runs that
	// drew one only had to survive.
	c := fi.Counts()
	if c.FatalErrors > 0 {
		return
	}
	sum, h := loop.Summary(), loop.Health()
	if h.BadSamples != sum.BadSamples || h.SampleErrors != sum.SampleErrors ||
		h.RejectedApplies != sum.RejectedApplies || h.ResetErrs != sum.ResetErrs || h.Retries != sum.Retries {
		t.Fatalf("Health %+v disagrees with Summary %+v", h, sum)
	}
	if sum.SampleErrors != c.SampleErrors {
		t.Errorf("SampleErrors = %d, injector dropped %d", sum.SampleErrors, c.SampleErrors)
	}
	if sum.BadSamples != c.SampleNaNs+c.SampleNegatives {
		t.Errorf("BadSamples = %d, injector corrupted %d", sum.BadSamples, c.SampleNaNs+c.SampleNegatives)
	}
	// Every failed Apply or MeasureIsolated call was either retried, or
	// counted as a rejection or reset error, or returned to the caller.
	// The breaker's safe-config Apply is the one failure left uncounted.
	failed := c.ApplyErrors + c.MeasureErrors
	accounted := sum.Retries + sum.RejectedApplies + sum.ResetErrs + returned
	if failed != accounted && !(breaker && failed > accounted) {
		t.Errorf("injector failed %d applies + %d measurements, loop accounts for %d (retries %d rejected %d reset errors %d returned %d)",
			c.ApplyErrors, c.MeasureErrors, accounted, sum.Retries, sum.RejectedApplies, sum.ResetErrs, returned)
	}
	if !retries && !breaker {
		if sum.RejectedApplies != c.ApplyErrors {
			t.Errorf("RejectedApplies = %d, injector rejected %d", sum.RejectedApplies, c.ApplyErrors)
		}
		if sum.ResetErrs+returned != c.MeasureErrors {
			t.Errorf("ResetErrs %d + returned %d, injector failed %d measurements", sum.ResetErrs, returned, c.MeasureErrors)
		}
	}
}
