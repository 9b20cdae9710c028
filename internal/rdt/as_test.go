package rdt

import (
	"testing"

	"satori/internal/sim"
	"satori/internal/workloads"
)

// passWrapper is the smallest possible platform wrapper: it forwards the
// core operations by embedding the interface and offers no capability of
// its own, only Unwrap.
type passWrapper struct{ Platform }

func (w passWrapper) Unwrap() Platform { return w.Platform }

// refusingWrapper implements FastSampler itself (always refusing), so it
// shadows the fast path of whatever it wraps.
type refusingWrapper struct{ passWrapper }

func (refusingWrapper) SampleFast() ([]float64, bool) { return nil, false }
func (refusingWrapper) FastHorizon() int              { return 0 }

func newTestSimPlatform(t *testing.T) *SimPlatform {
	t.Helper()
	simulator, err := sim.New(sim.DefaultMachine(), workloads.PARSEC()[:3], sim.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// As walks a two-deep chain — a plain wrapper over a fault injector over
// the simulator — and returns the first layer implementing the target.
func TestAsTwoDeepChain(t *testing.T) {
	sp := newTestSimPlatform(t)
	fi, err := NewFaultInjector(sp, FaultScript{})
	if err != nil {
		t.Fatal(err)
	}
	outer := passWrapper{fi}
	if got, ok := As[*FaultInjector](outer); !ok || got != fi {
		t.Errorf("As[*FaultInjector] = %v, %v; want the middle layer", got, ok)
	}
	if got, ok := As[*SimPlatform](outer); !ok || got != sp {
		t.Errorf("As[*SimPlatform] = %v, %v; want the innermost layer", got, ok)
	}
	if c, ok := As[Churner](outer); !ok || c != Churner(sp) {
		t.Errorf("As[Churner] = %v, %v; want the simulator", c, ok)
	}
	if _, ok := As[Grouper](outer); !ok {
		t.Error("Grouper not found two layers down")
	}
	if _, ok := As[CLOSLimiter](outer); !ok {
		t.Error("CLOSLimiter not found two layers down")
	}
	if got, ok := As[Platform](outer); !ok || got != Platform(outer) {
		t.Error("As[Platform] must return the outermost layer")
	}
}

// A capability only the inner platform has is found, although the
// wrapper's own method set lacks it.
func TestAsCapabilityOnlyOnInner(t *testing.T) {
	sp := newTestSimPlatform(t)
	var outer Platform = passWrapper{sp}
	if _, ok := outer.(BatchSampler); ok {
		t.Fatal("test wrapper unexpectedly implements BatchSampler itself")
	}
	b, ok := As[BatchSampler](outer)
	if !ok || b != BatchSampler(sp) {
		t.Errorf("As[BatchSampler] = %v, %v; want the inner simulator", b, ok)
	}
}

// A wrapper that implements a capability itself shadows the inner one,
// exactly as errors.As stops at the first match.
func TestAsOuterShadowsInner(t *testing.T) {
	sp := newTestSimPlatform(t)
	outer := refusingWrapper{passWrapper{sp}}
	fs, ok := As[FastSampler](outer)
	if !ok {
		t.Fatal("FastSampler not found")
	}
	if _, isSim := fs.(*SimPlatform); isSim {
		t.Error("As skipped the outer FastSampler for the inner one")
	}
	// A capability the outer layer lacks still comes from the inner one.
	if _, ok := As[Churner](outer); !ok {
		t.Error("Churner not found beneath the shadowing wrapper")
	}
}

// On a bare platform As reports false for what it is not, with the zero
// value, and never panics on nil.
func TestAsBarePlatform(t *testing.T) {
	sp := newTestSimPlatform(t)
	if fi, ok := As[*FaultInjector](sp); ok || fi != nil {
		t.Errorf("As[*FaultInjector] on a bare platform = %v, %v; want nil, false", fi, ok)
	}
	if got, ok := As[*SimPlatform](sp); !ok || got != sp {
		t.Error("As[*SimPlatform] on the simulator itself failed")
	}
	if _, ok := As[Churner](nil); ok {
		t.Error("As on a nil platform reported a capability")
	}
}
