package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"satori/internal/control"
	"satori/internal/harness"
	"satori/internal/policies/oracle"
	"satori/internal/trace"
	"satori/internal/workloads"
)

// repro-fig7: the paper's headline figure — every Fig. 7 policy on all
// 21 PARSEC paper mixes plus the per-mix Balanced-Oracle references, as a
// batch of independent cells on a 2-worker pool with no cell cache.
const (
	fig7Ticks   = 600
	fig7Workers = 2
	// fig7SuiteSeconds sets the suites per run (at least two): one suite
	// takes about 8–17 s on a 2-CPU Xeon VM.
	fig7SuiteSeconds = 10
	// fig7SetupRounds is how often the smoke-scale suite warms up (and is
	// checked against the golden) before timing; set-up reports the median.
	fig7SetupRounds = 5
)

// fig7Golden is the committed smoke-scale Fig. 7 table (60 ticks, 2
// mixes, seed 42), relative to the repository root the benchmark runs
// from. It is only read.
var fig7Golden = filepath.Join("internal", "harness", "testdata", "golden", "fig7_smoke.csv")

// fig7Lineup is the Fig. 7 policy list, in table order.
func fig7Lineup() []harness.NamedFactory {
	return append(harness.CompetingPolicies(),
		harness.NamedFactory{Name: "satori-throughput", Factory: harness.SatoriStaticFactory(1)},
		harness.NamedFactory{Name: "satori-fairness", Factory: harness.SatoriStaticFactory(0)},
		harness.NamedFactory{Name: "throughput-oracle", Factory: harness.OracleFactory(oracle.Throughput, oracle.Options{})},
		harness.NamedFactory{Name: "fairness-oracle", Factory: harness.OracleFactory(oracle.Fairness, oracle.Options{})},
	)
}

// decideKind attributes a lineup policy's Decide time to a layer: the
// SATORI engine (core), the brute-force oracles, or the baselines.
func decideKind(name string) op {
	switch name {
	case "satori", "satori-throughput", "satori-fairness":
		return opDecideCore
	case "throughput-oracle", "fairness-oracle":
		return opDecideOracle
	}
	return opDecidePolicies
}

// suiteRun is one RunSuite call through the wrapped lineup.
type suiteRun struct {
	wall  time.Duration
	alloc uint64
	res   *harness.SuiteResult
	cells *cellRegistry
}

func runFig7Suite(seed uint64, mixes []workloads.Mix, ticks, workers int, rec *recorder) (*suiteRun, error) {
	cells := newCellRegistry()
	spec := harness.SuiteSpec{
		Mixes:    mixes,
		Policies: timedFactories(fig7Lineup(), rec, cells),
		Base:     harness.DefaultSuiteBase(seed, ticks),
		Workers:  workers,
	}
	if rec != nil {
		rec.enabled.Store(true)
		rec.open(opSuite, 0, rec.now())
	}
	a0 := totalAlloc()
	t := time.Now()
	res, err := harness.RunSuite(spec)
	wall := time.Since(t)
	alloc := totalAlloc() - a0
	if rec != nil {
		rec.close(rec.now())
		rec.enabled.Store(false)
	}
	if err != nil {
		return nil, err
	}
	return &suiteRun{wall: wall, alloc: alloc, res: res, cells: cells}, nil
}

// meansCSV renders the suite's across-mix means as the fig7 experiment's
// table does.
func meansCSV(res *harness.SuiteResult) (string, error) {
	tbl := trace.NewTable("policy", "throughput %oracle", "fairness %oracle", "worst-job %oracle")
	means := res.Means()
	for _, name := range res.Policies {
		m := means[name]
		tbl.AddRow(name, trace.Pct(m.PctThroughput), trace.Pct(m.PctFairness), trace.Pct(m.PctWorst))
	}
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// fingerprint renders every cell's scores at full precision.
func (s *suiteRun) fingerprint() string {
	var b strings.Builder
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, name := range s.res.Policies {
		for _, sc := range s.res.Scores[name] {
			fmt.Fprintf(&b, "%s/%d:%s,%s,%s;", name, sc.MixIndex, g(sc.PctThroughput), g(sc.PctFairness), g(sc.PctWorst))
		}
	}
	for m, r := range s.res.OracleRaw {
		fmt.Fprintf(&b, "oracle/%d:%s,%s;", m, g(r.MeanThroughput), g(r.MeanFairness))
	}
	return b.String()
}

// check verifies every cell completed and counts failed operations:
// rejected applies and survived baseline-refresh failures.
func (s *suiteRun) check(mixes []workloads.Mix, ticks int, o *outcome) {
	want := len(mixes) * len(s.res.Policies)
	if n := len(s.cells.clocks); n != want {
		o.problem("built %d lineup cells, want %d", n, want)
	}
	if n := len(s.res.OracleRaw); n != len(mixes) {
		o.problem("%d Balanced-Oracle references, want %d", n, len(mixes))
	}
	count := func(what string, ticksRun, rejected, resets int) {
		o.attempted += ticks
		o.failed += rejected + resets
		if ticksRun != ticks {
			o.problem("%s ran %d ticks, want %d", what, ticksRun, ticks)
		}
	}
	for _, name := range s.res.Policies {
		if len(s.res.Scores[name]) != len(mixes) {
			o.problem("%s scored %d mixes, want %d", name, len(s.res.Scores[name]), len(mixes))
		}
		for _, sc := range s.res.Scores[name] {
			count(fmt.Sprintf("%s on mix %d", name, sc.MixIndex), sc.Raw.Ticks, sc.Raw.RejectedApplies, sc.Raw.TransientResets)
		}
	}
	for m, r := range s.res.OracleRaw {
		count(fmt.Sprintf("oracle on mix %d", m), r.Ticks, r.RejectedApplies, r.TransientResets)
	}
}

// cellTicks is the number of ticks all the suite's cells ran.
func (s *suiteRun) cellTicks(ticks int) int {
	return (len(s.cells.clocks) + len(s.res.OracleRaw)) * ticks
}

// fig7Setup warms up on the smoke-scale suite through the wrapped lineup
// and checks both it and the fig7 experiment itself against the golden
// table. It returns the median warm-up time.
func fig7Setup(o *outcome) (time.Duration, error) {
	golden, err := os.ReadFile(fig7Golden)
	if err != nil {
		return 0, fmt.Errorf("read the smoke-scale golden (run from the repository root): %w", err)
	}
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		return 0, err
	}
	var setups []time.Duration
	for i := 0; i < fig7SetupRounds; i++ {
		t := time.Now()
		s, err := runFig7Suite(42, mixes[:2], 60, 1, nil)
		if err != nil {
			return 0, err
		}
		setups = append(setups, time.Since(t))
		got, err := meansCSV(s.res)
		if err != nil {
			return 0, err
		}
		if got != string(golden) {
			o.problem("smoke-scale suite through the benchmark's lineup differs from %s:\n%s", fig7Golden, got)
		}
	}
	e, ok := harness.FindExperiment("fig7")
	if !ok {
		return 0, fmt.Errorf("fig7 experiment not registered")
	}
	rep, err := e.Run(harness.ExpOptions{Ticks: 60, Seed: 42, MixLimit: 2, Workers: 1})
	if err != nil {
		return 0, err
	}
	var got strings.Builder
	if err := rep.Tables[0].WriteCSV(&got); err != nil {
		return 0, err
	}
	if got.String() != string(golden) {
		o.problem("smoke-scale fig7 experiment differs from %s:\n%s", fig7Golden, got.String())
	}
	return medianDuration(setups), nil
}

func runReproFig7(cfg config) (*outcome, error) {
	o := newOutcome()
	setup, err := fig7Setup(o)
	if err != nil {
		return nil, err
	}
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceReproFig7(cfg, o, mixes)
	}
	var runs []*suiteRun
	var spent time.Duration
	for len(runs) < max(2, int(cfg.seconds/fig7SuiteSeconds)) {
		s, err := runFig7Suite(cfg.seed, mixes, fig7Ticks, fig7Workers, nil)
		if err != nil {
			return nil, err
		}
		runs = append(runs, s)
		spent += s.wall
	}
	first := runs[0]
	// The suites repeat one seed, so each SATORI-family cell runs the
	// same ticks in every suite. The median pools every suite's ticks;
	// the tail takes each tick's fastest run, so it shows the program's
	// slow ticks (refits) rather than where garbage collection or
	// interference from outside the VM happened to fall.
	var lat []time.Duration
	fastest := map[string][]time.Duration{}
	var alloc uint64
	var cellTicks int
	for i, s := range runs {
		if s.fingerprint() != first.fingerprint() {
			o.problem("suite %d scores differ from suite 1 on the same seed", i+1)
		}
		s.check(mixes, fig7Ticks, o)
		for _, clk := range s.cells.clocks {
			if clk.kind != opDecideCore {
				continue
			}
			gaps := clk.gaps()
			lat = append(lat, gaps...)
			best, seen := fastest[clk.key]
			switch {
			case !seen:
				fastest[clk.key] = slices.Clone(gaps)
			case len(best) != len(gaps):
				o.problem("cell %s ran %d ticks in suite %d, %d in suite 1", clk.key, len(gaps)+1, i+1, len(best)+1)
			default:
				for t, d := range gaps {
					best[t] = min(best[t], d)
				}
			}
		}
		alloc += s.alloc
		cellTicks += s.cellTicks(fig7Ticks)
	}
	// A key names one cell in every suite; fewer keys than cells would
	// mean two cells' ticks were taken as one cell's reruns.
	if n, want := len(fastest), 3*len(mixes); n != want {
		o.problem("%d distinct SATORI-family cells, want %d", n, want)
	}
	var tail []time.Duration
	for _, best := range fastest {
		tail = append(tail, best...)
	}
	// SATORI's row as a share of the Balanced Oracle, averaged over mixes.
	satori := first.res.Means()["satori"]
	var objPct float64
	for m, sc := range first.res.Scores["satori"] {
		objPct += ratio(sc.Raw.MeanObjective, first.res.OracleRaw[m].MeanObjective)
	}
	objPct /= float64(len(mixes))
	o.set("setup_s", setup.Seconds(), "s")
	// Per-tick host time is taken over the SATORI-family cells, the
	// policy the paper is about; the cheap baselines' microsecond ticks
	// would otherwise set the median.
	o.set("tick_p50_us", us(percentile(lat, 50)), "us")
	o.set("tick_p99_us", us(percentile(tail, 99)), "us")
	o.set("sim_s_per_host_s", float64(cellTicks)*control.TickSeconds/spent.Seconds(), "s/s")
	o.set("objective", objPct, "ratio")
	o.set("throughput", satori.PctThroughput, "ratio")
	o.set("fairness", satori.PctFairness, "ratio")
	// The PARSEC mixes are batch-only; see node-steady.
	o.set("slo_attainment", 1, "ratio")
	o.set("ok_frac", 1-ratio(float64(o.failed), float64(o.attempted)), "ratio")
	o.set("alloc_kb_per_tick", float64(alloc)/1024/float64(cellTicks), "KiB")
	o.detail["peak_rss_mb"] = peakRSSMB()
	table, err := meansCSV(first.res)
	if err != nil {
		return nil, err
	}
	o.detail["suites"] = len(runs)
	o.detail["timed_ticks"] = len(lat)
	o.detail["tail_ticks"] = len(tail)
	o.detail["cell_ticks"] = cellTicks
	o.detail["fig7"] = table
	return o, nil
}

// traceReproFig7 runs the suite untraced and then traced on the same
// seed, checks their scores agree, and reports the traced suite's
// per-layer metrics.
func traceReproFig7(cfg config, o *outcome, mixes []workloads.Mix) (*outcome, error) {
	plain, err := runFig7Suite(cfg.seed, mixes, fig7Ticks, fig7Workers, nil)
	if err != nil {
		return nil, err
	}
	plain.check(mixes, fig7Ticks, o)
	rec := newRecorder(1)
	traced, err := runFig7Suite(cfg.seed, mixes, fig7Ticks, fig7Workers, rec)
	if err != nil {
		return nil, err
	}
	traced.check(mixes, fig7Ticks, o)
	if traced.fingerprint() != plain.fingerprint() {
		o.problem("traced suite scores differ from the untraced suite's")
	}
	c := counters{cells: len(traced.cells.clocks) + len(traced.res.OracleRaw)}
	setPerLayer(o, rec, c, overheadPct(traced.wall, plain.wall))
	o.detail["spans"] = writeSpansFile(cfg, rec.spans)
	return o, nil
}
