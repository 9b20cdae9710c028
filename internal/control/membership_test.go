package control

import (
	"math"
	"testing"

	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/workloads"
)

// scriptedLoop builds the 3-job fault loop under a fault-script DSL spec.
func scriptedLoop(t *testing.T, spec string, opt Options) (*Loop, *rdt.FaultInjector) {
	t.Helper()
	script, err := rdt.ParseFaultScript(spec)
	if err != nil {
		t.Fatal(err)
	}
	return newFaultLoop(t, script, opt)
}

// checkScored asserts a scored tick was scored against baselines of the
// live job set.
func checkScored(t *testing.T, loop *Loop, st Status) {
	t.Helper()
	n := loop.NumJobs()
	if len(st.IPS) != n || len(st.Isolated) != n || len(st.Speedups) != n || len(loop.Isolated()) != n {
		t.Fatalf("tick %d scored with ips %d, isolated %d, speedups %d, loop isolated %d for %d jobs",
			st.Tick, len(st.IPS), len(st.Isolated), len(st.Speedups), len(loop.Isolated()), n)
	}
}

// Regression: a membership change whose re-measurement exhausts its
// retries used to leave N baselines and the old policy over an N+1-job
// platform, and the next Step panicked in metrics.Speedups. The platform
// change has committed, so the loop now owes the rebuild and settles it
// on the next Step before it samples.
func TestChurnRebuildOwedAfterFailedMeasurement(t *testing.T) {
	loop, fi := scriptedLoop(t, "measure:error@2x3", Options{})
	if _, err := loop.Step(); err != nil {
		t.Fatal(err)
	}
	if err := loop.AddJob(workloads.PARSEC()[5]); err != nil {
		t.Errorf("AddJob after the platform admitted the job: %v", err)
	}
	if loop.NumJobs() != 4 {
		t.Fatalf("NumJobs = %d, want 4", loop.NumJobs())
	}
	if h := loop.IdleHorizon(); h != 0 {
		t.Errorf("IdleHorizon = %d while a rebuild is owed, want 0", h)
	}
	st, err := loop.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded || st.Speedups == nil || !st.BaselineReset {
		t.Fatalf("settling tick not scored as a baseline reset: %+v", st)
	}
	checkScored(t, loop, st)
	if got := len(loop.Current().Alloc[0]); got != 4 {
		t.Errorf("installed partition spans %d jobs, want 4", got)
	}
	if sum := loop.Summary(); sum.ResetErrs != 1 || sum.Retries != 2 {
		t.Errorf("ResetErrs %d Retries %d, want 1 2 (one absorbed churn measurement)", sum.ResetErrs, sum.Retries)
	}
	if c := fi.Counts(); c.MeasureErrors != 3 {
		t.Errorf("injector failed %d measurements, want 3", c.MeasureErrors)
	}
}

// While the owed rebuild keeps failing, each tick is degraded: no sample
// is taken, the partition holds, and the miss counts in ResetErrs. The
// first tick that settles is scored against the live job set.
func TestChurnRebuildOwedDegradesUntilSettled(t *testing.T) {
	for _, tc := range []struct {
		name  string
		churn func(*Loop) error
		jobs  int
	}{
		{"add", func(l *Loop) error { return l.AddJob(workloads.PARSEC()[5]) }, 4},
		{"remove", func(l *Loop) error { return l.RemoveJob(0) }, 2},
		{"replace", func(l *Loop) error { return l.ReplaceJob(1, workloads.PARSEC()[5]) }, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Retries disabled: each failed measurement is one fault.
			loop, fi := scriptedLoop(t, "measure:error@2x3", Options{
				Resilience: ResilienceOptions{MaxRetries: -1},
			})
			if err := tc.churn(loop); err != nil {
				t.Fatalf("churn: %v", err)
			}
			samplesBefore := fi.Calls(rdt.OpSample)
			for tick := 1; tick <= 2; tick++ {
				st, err := loop.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !st.Degraded || st.ResetErr == nil || !rdt.IsTransient(st.ResetErr) || st.Speedups != nil {
					t.Fatalf("tick %d: owed rebuild failed but tick not degraded: %+v", tick, st)
				}
				if got := len(st.Config.Alloc[0]); got != tc.jobs {
					t.Errorf("tick %d: held partition spans %d jobs, want %d", tick, got, tc.jobs)
				}
			}
			if fi.Calls(rdt.OpSample) != samplesBefore {
				t.Error("a degraded owed-rebuild tick sampled the platform")
			}
			st, err := loop.Step()
			if err != nil {
				t.Fatal(err)
			}
			if st.Degraded || !st.BaselineReset {
				t.Fatalf("settling tick: %+v", st)
			}
			checkScored(t, loop, st)
			sum := loop.Summary()
			if sum.ResetErrs != 3 || sum.ResetErrs != fi.Counts().MeasureErrors {
				t.Errorf("ResetErrs = %d, injector failed %d measurements, want 3", sum.ResetErrs, fi.Counts().MeasureErrors)
			}
			if h := loop.Health(); h.ConsecutiveFailures != 0 || h.TicksSinceGoodApply != 0 {
				t.Errorf("loop not recovered after settling: %+v", h)
			}
		})
	}
}

// A non-transient failure still aborts: the churn call returns it, the
// next Step returns it while it persists, and the loop recovers once the
// owed rebuild settles — never panicking on the way.
func TestChurnRebuildOwedFatalAborts(t *testing.T) {
	loop, _ := scriptedLoop(t, "measure:fatal@2x2", Options{})
	err := loop.AddJob(workloads.PARSEC()[5])
	if err == nil || rdt.IsTransient(err) {
		t.Fatalf("AddJob = %v, want the non-transient failure", err)
	}
	if _, err := loop.Step(); err == nil || rdt.IsTransient(err) {
		t.Fatalf("Step = %v, want the non-transient failure", err)
	}
	st, err := loop.Step()
	if err != nil {
		t.Fatal(err)
	}
	checkScored(t, loop, st)
}

// stubPlatform is a minimal fixed-membership Platform whose readings the
// test controls.
type stubPlatform struct {
	space    *resource.Space
	cur      resource.Config
	ips, iso []float64
}

func newStubPlatform(t *testing.T, jobs int) *stubPlatform {
	t.Helper()
	space, err := resource.NewSpace(jobs, resource.Resource{Kind: resource.Cores, Units: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := &stubPlatform{space: space, cur: space.EqualSplit()}
	for j := 0; j < jobs; j++ {
		p.ips = append(p.ips, 1e9)
		p.iso = append(p.iso, 2e9)
	}
	return p
}

func (p *stubPlatform) Space() *resource.Space              { return p.space }
func (p *stubPlatform) Apply(c resource.Config) error       { p.cur = c.Clone(); return nil }
func (p *stubPlatform) Current() resource.Config            { return p.cur.Clone() }
func (p *stubPlatform) Sample() ([]float64, error)          { return p.ips, nil }
func (p *stubPlatform) MeasureIsolated() ([]float64, error) { return p.iso, nil }
func (p *stubPlatform) JobNames() []string                  { return make([]string, p.space.Jobs) }
func (p *stubPlatform) Resync() error                       { return nil }

func newStubLoop(t *testing.T, p *stubPlatform) *Loop {
	t.Helper()
	loop, err := New(Options{
		Platform: p,
		Policy:   func(rdt.Platform) (policy.Policy, error) { return policy.Static{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return loop
}

// A Sample of the wrong length is a BadSample tick in Step and in
// AdvanceIdle, never a panic, and the loop scores again once readings
// match the job set.
func TestWrongLengthSampleIsBadSample(t *testing.T) {
	p := newStubPlatform(t, 3)
	loop := newStubLoop(t, p)
	for _, ips := range [][]float64{{1e9, 1e9}, {1e9, 1e9, 1e9, 1e9}, nil} {
		p.ips = ips
		st, err := loop.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !st.BadSample || st.Speedups != nil {
			t.Errorf("Step with %d readings for 3 jobs: %+v", len(ips), st)
		}
		st, err = loop.AdvanceIdle(1)
		if err != nil {
			t.Fatal(err)
		}
		if !st.BadSample {
			t.Errorf("AdvanceIdle with %d readings for 3 jobs: %+v", len(ips), st)
		}
	}
	if got := loop.Summary().BadSamples; got != 6 {
		t.Errorf("BadSamples = %d, want 6", got)
	}
	p.ips = []float64{1e9, 1e9, 1e9}
	st, err := loop.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.BadSample || len(st.Speedups) != 3 {
		t.Errorf("well-formed reading not scored: %+v", st)
	}
}

// A MeasureIsolated of the wrong length is an error: at construction,
// from RefreshBaselines, and as the periodic refresh's ResetErr.
func TestWrongLengthMeasureIsError(t *testing.T) {
	p := newStubPlatform(t, 3)
	p.iso = p.iso[:2]
	if _, err := New(Options{
		Platform: p,
		Policy:   func(rdt.Platform) (policy.Policy, error) { return policy.Static{}, nil },
	}); err == nil {
		t.Error("New accepted 2 isolated baselines for 3 jobs")
	}

	p = newStubPlatform(t, 3)
	loop, err := New(Options{
		Platform:           p,
		Policy:             func(rdt.Platform) (policy.Policy, error) { return policy.Static{}, nil },
		BaselineResetTicks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.iso = []float64{2e9, 2e9, 2e9, math.Inf(1)}
	if err := loop.RefreshBaselines(); err == nil {
		t.Error("RefreshBaselines accepted 4 isolated baselines for 3 jobs")
	}
	var resetErr error
	for tick := 1; tick <= 3; tick++ {
		st, err := loop.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.ResetErr != nil {
			resetErr = st.ResetErr
		}
		checkScored(t, loop, st)
	}
	if resetErr == nil {
		t.Error("periodic refresh accepted 4 isolated baselines for 3 jobs")
	}
}
