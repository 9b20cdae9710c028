// Command perfbench is the repository's benchmark. It runs one of three
// workloads through the program's public functions — control.New and
// Loop.Step (node-steady), fleet.New and Cluster.Step (fleet-churn),
// harness.RunSuite (repro-fig7) — checks the workload's outputs, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a traced run) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// The line before it records the host, the seed and the workload's
// deterministic outputs. Every input is generated from -seed. See
// README.md for the metric glossary and how to run it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spansDir string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run reports back to main.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	// problems lists every failed output check; any entry makes the run
	// incorrect.
	problems []string
	// detail holds the deterministic outputs and sample counts, printed
	// with the host record.
	detail map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, detail: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// runners maps each workload name to its runner.
var runners = map[string]func(config) (*outcome, error){
	"node-steady": runNodeSteady,
	"fleet-churn": runFleetChurn,
	"repro-fig7":  runReproFig7,
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var seed int64
	var traceFlag int
	names := make([]string, 0, len(runners))
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	flag.Int64Var(&seed, "seed", 1, "seed every input is generated from (>= 0)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "timed work per run, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&cfg.spansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "where a traced run writes its spans")
	flag.Parse()
	runFn, ok := runners[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %s)\n", cfg.workload, strings.Join(names, ", "))
		return 2
	}
	if seed < 0 || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seed must be >= 0, -seconds > 0 and -trace 0 or 1")
		return 2
	}
	cfg.seed, cfg.trace = uint64(seed), traceFlag == 1

	out, err := runFn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", cfg.workload, p)
	}
	for name, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is %v\n", cfg.workload, name, m.Value)
			out.problems = append(out.problems, "non-finite metric "+name)
			delete(out.metrics, name)
		}
	}
	record := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    traceFlag,
		"host":     hostInfo(),
		"detail":   out.detail,
		"problems": out.problems,
	}
	if err := printJSON(record); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	if err := printJSON(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// hostInfo records what the numbers were measured on.
func hostInfo() map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     gitCommit(),
		"source":     sourceHash(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD of a git checkout in the working directory
// without running git; "unknown" when the directory is not a checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceHash names the source the benchmark was built from, also where
// there is no git checkout to name a commit: the first 16 hex digits of
// a SHA-256 over every Go source and go.mod file under the working
// directory (hidden directories, such as .bench_build, skipped), in path
// order.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// totalAlloc returns the bytes the Go heap has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// percentile returns the p-th percentile (0..100) of durs by linear
// interpolation between closest ranks. durs is sorted in place.
func percentile(durs []time.Duration, p float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pos := p / 100 * float64(len(durs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return durs[lo] + time.Duration(frac*float64(durs[hi]-durs[lo]))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDuration returns the median of durs (sorted in place).
func medianDuration(durs []time.Duration) time.Duration { return percentile(durs, 50) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// inUnit reports whether v is a finite score in [0, 1].
func inUnit(v float64) bool { return !math.IsNaN(v) && v >= 0 && v <= 1 }
