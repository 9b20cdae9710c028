package satori

import (
	"testing"

	"satori/internal/rdt"
	"satori/internal/sim"
)

// newFaultWrappedSim builds a simulated platform over the first n PARSEC
// jobs and wraps it in a fault injector with an empty script.
func newFaultWrappedSim(t *testing.T, n int) (rdt.Platform, *rdt.SimPlatform) {
	t.Helper()
	jobs, err := Suite(SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	simulator, err := sim.New(sim.DefaultMachine(), jobs[:n], sim.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	var p rdt.Platform
	p, err = rdt.NewFaultInjector(sp, rdt.FaultScript{})
	if err != nil {
		t.Fatal(err)
	}
	return p, sp
}

// Simulator-only policies find the simulator beneath a fault injector:
// faults perturb the control/monitor boundary, not the model the oracle
// reads.
func TestSimOnlyPoliciesThroughFaultInjector(t *testing.T) {
	factories := map[string]func(Platform) (Policy, error){
		"balanced-oracle": NewOraclePolicy(BalancedOracle),
	}
	byName, err := NewPolicyByName("satori", 1)
	if err != nil {
		t.Fatal(err)
	}
	factories["satori-by-name"] = byName
	for name, factory := range factories {
		p, _ := newFaultWrappedSim(t, 3)
		sess, err := NewSessionOn(p, SessionConfig{Policy: factory})
		if err != nil {
			t.Fatalf("%s on a fault-wrapped simulator: %v", name, err)
		}
		if _, err := sess.Run(5); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// Clustered policies push their grouping down through a fault injector,
// so the simulator compiles one control group per cluster.
func TestClusteredPoliciesGroupThroughFaultInjector(t *testing.T) {
	factories := map[string]func(Platform) (Policy, error){
		"satori-clustered": NewClusteredSatoriPolicy(2, EngineOptions{Seed: 1}),
		"lfoc":             NewLFOCPolicy(2),
	}
	for name, factory := range factories {
		p, sp := newFaultWrappedSim(t, 5)
		sess, err := NewSessionOn(p, SessionConfig{Policy: factory})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := sess.Run(3); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sp.Grouping() == nil {
			t.Errorf("%s: grouping never reached the simulator beneath the injector", name)
			continue
		}
		if got := len(sp.Plan().Jobs); got != 2 {
			t.Errorf("%s: simulator compiled %d control groups, want 2", name, got)
		}
	}
}
