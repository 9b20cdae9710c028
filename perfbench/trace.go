package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op names one traced layer boundary: a call from the benchmark (or from
// the program into a probe the benchmark installed) into a layer's public
// function.
type op uint8

const (
	opControlStep op = iota
	opFleetStep
	opSuite
	opSample
	opSampleFast
	opSkipFast
	opApply
	opMeasureIsolated
	opChurn
	opDecideCore
	opDecideOracle
	opDecidePolicies
	numOps
)

var opNames = [numOps]string{
	opControlStep:     "control.step",
	opFleetStep:       "fleet.step",
	opSuite:           "harness.suite",
	opSample:          "rdt.sample",
	opSampleFast:      "rdt.sample_fast",
	opSkipFast:        "rdt.skip_fast",
	opApply:           "rdt.apply",
	opMeasureIsolated: "rdt.measure_isolated",
	opChurn:           "rdt.churn",
	opDecideCore:      "core.decide",
	opDecideOracle:    "oracle.decide",
	opDecidePolicies:  "policies.decide",
}

// isDecide reports whether o is a policy Decide span.
func (o op) isDecide() bool {
	return o == opDecideCore || o == opDecideOracle || o == opDecidePolicies
}

// span is one timed call. Start and end are nanoseconds since the
// recorder's epoch on the monotonic clock. parent indexes the enclosing
// root span (-1 for a root). tick and node identify the unit of work the
// span belongs to: every span of one control-loop tick, one fleet tick,
// or one suite cell's tick shares them. ok records the call's outcome:
// a hit for rdt.sample_fast/rdt.skip_fast, an accepted decision for
// rdt.apply, a changed configuration for a Decide.
type span struct {
	start, end int64
	parent     int32
	tick       int32
	node       int32
	op         op
	ok         bool
}

// opStats aggregates the spans of one op.
type opStats struct {
	calls int
	ok    int
	busy  time.Duration
	durs  []time.Duration // Decide spans only
}

// layerStats is the per-op aggregate of every recorded span, plus each
// root op's self time: its spans' durations minus the part of each
// interval that child spans cover.
type layerStats struct {
	ops  [numOps]opStats
	self [numOps]time.Duration
}

// recorder aggregates every span as it is recorded and keeps the spans
// themselves in memory until the run ends: every root span, and the
// children of every keepEvery-th root. (A fleet tick has thousands of
// platform calls; keeping them all would cost gigabytes.) Probes on
// worker goroutines (fleet node stepping, suite cells) record
// concurrently, so recording is serialized by mu. Recording is off until
// enabled, so probes installed at construction stay inert through
// warm-up.
type recorder struct {
	epoch     time.Time
	enabled   atomic.Bool
	keepEvery int

	mu       sync.Mutex
	root     int32 // index of the open root span, -1 when none
	keepRoot bool  // the open root's children are kept
	roots    int
	children [][2]int64 // the open root's child intervals
	stats    layerStats
	spans    []span
}

func newRecorder(keepEvery int) *recorder {
	return &recorder{epoch: time.Now(), keepEvery: max(1, keepEvery), root: -1}
}

// now returns nanoseconds since the epoch on the monotonic clock.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// on reports whether spans are being recorded.
func (r *recorder) on() bool { return r != nil && r.enabled.Load() }

// open starts a root span at start; spans recorded until close are its
// children.
func (r *recorder) open(o op, tick int, start int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.root = int32(len(r.spans))
	r.keepRoot = r.roots%r.keepEvery == 0
	r.roots++
	r.children = r.children[:0]
	r.spans = append(r.spans, span{start: start, parent: -1, tick: int32(tick), node: -1, op: o})
}

// close ends the open root span at end and accounts its self time.
func (r *recorder) close(end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[r.root]
	s.end = end
	d := s.end - s.start
	st := &r.stats.ops[s.op]
	st.calls++
	st.busy += time.Duration(d)
	r.stats.self[s.op] += time.Duration(d - unionWithin(r.children, s.start, s.end))
	r.root = -1
}

// add records a child span of the open root. tick < 0 takes the root's
// tick.
func (r *recorder) add(o op, start, end int64, tick, node int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &r.stats.ops[o]
	st.calls++
	st.busy += time.Duration(end - start)
	if ok {
		st.ok++
	}
	if o.isDecide() {
		st.durs = append(st.durs, time.Duration(end-start))
	}
	if r.root < 0 {
		return
	}
	r.children = append(r.children, [2]int64{start, end})
	if tick < 0 {
		tick = int(r.spans[r.root].tick)
	}
	if r.keepRoot {
		r.spans = append(r.spans, span{start: start, end: end, parent: r.root, tick: int32(tick), node: int32(node), op: o, ok: ok})
	}
}

// unionWithin returns the length of the union of the intervals, each
// clipped to [lo, hi]. Children on parallel workers overlap each other,
// so their durations cannot simply be summed. iv is reordered.
func unionWithin(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans writes spans as gzipped CSV, one row per span, to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "index,name,start_ns,end_ns,parent,tick,node,ok")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d,%d,%t\n", i, opNames[s.op], s.start, s.end, s.parent, s.tick, s.node, s.ok)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
