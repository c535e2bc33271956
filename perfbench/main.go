// Command perfbench is the repository's benchmark. It runs one workload —
// record, replay or serve — for a fixed time, checks that every output is
// correct, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of the named
// workload. With -trace 1 the benchmark makes one traced run instead: it
// times its own calls into every layer's public functions, across all three
// workloads, keeps the spans in memory, writes them out at the end, and
// reports the per-layer metrics with the tracing overhead. No tracing is
// added inside the program.
//
// Build and run it from the repository root with perfbench/run.sh; see
// perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxCycles bounds every simulated run; it is the eval harness default.
const maxCycles = 50_000_000

// setupReps is how many times set-up is repeated to report its median.
const setupReps = 5

// workDir holds everything the benchmark writes: temporary trace stores,
// span dumps and exact-repeat fingerprints. It is relative to the working
// directory, the repository root.
var workDir = filepath.Join(".bench_build", "perfbench")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: one traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !knownWorkload(*workload) || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames, "|"))
		return 2
	}
	opts := options{workload: *workload, seed: *seed, seconds: *seconds, traced: *traceFlag == 1}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	var rep *report
	var err error
	if opts.traced {
		rep, err = tracedRun(opts)
	} else {
		rep, err = untracedRun(opts)
	}
	if err != nil {
		// Set-up failed: there is nothing to measure and no result to print.
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printProvenance(stdout, opts, rep)
	rep.print(stdout)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

var workloadNames = []string{"record", "replay", "serve"}

func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// measure runs one workload untraced: set-up repeated setupReps times (the
// median is setup_s), then the measured loop on the last set-up's state.
func measure(name string, seed int64, d time.Duration, rep *report) error {
	switch name {
	case "record", "replay":
		w, times, err := repeatSetup(func() (*passWL, error) { return setupPass(name, seed) }, func(*passWL) {})
		if err != nil {
			return err
		}
		rep.setupS(times)
		w.measure(d, rep)
	case "serve":
		w, times, err := repeatSetup(func() (*serveWL, error) { return setupServe(seed) }, (*serveWL).closeQuiet)
		if err != nil {
			return err
		}
		rep.setupS(times)
		w.measure(d, rep)
		if err := w.close(); err != nil {
			rep.fail("serve: tear-down: %v", err)
		}
	}
	return nil
}

// repeatSetup runs set-up setupReps times, discarding all but the last
// state, and returns that state with every set-up duration.
func repeatSetup[W any](setup func() (W, error), discard func(W)) (W, []float64, error) {
	var w W
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(w)
		}
		t0 := time.Now()
		var err error
		if w, err = setup(); err != nil {
			return w, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return w, times, nil
}

func untracedRun(opts options) (*report, error) {
	rep := newReport()
	d := time.Duration(opts.seconds * float64(time.Second))
	if err := measure(opts.workload, opts.seed, d, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// printProvenance states how the numbers were produced.
func printProvenance(w io.Writer, opts options, rep *report) {
	mode := "untraced (end-to-end metrics)"
	if opts.traced {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g mode=%s\n", opts.workload, opts.seed, opts.seconds, mode)
	fmt.Fprintf(w, "provenance: go=%s build=%s GOMAXPROCS=%d nproc=%d commit=%s\n",
		runtime.Version(), buildMode(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit())
	fmt.Fprintf(w, "repetitions: %s\n", strings.Join(rep.reps, ", "))
}

// buildMode names how the benchmark binary was compiled.
func buildMode() string {
	if raceEnabled {
		return "race"
	}
	return "normal"
}

// commit reports the VCS revision the binary was built from, when the
// build recorded one (a plain source tree without .git has none).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one invocation's outcome: operations attempted and
// failed, the metrics, and the human-readable detail printed above the
// result line.
type report struct {
	mu                sync.Mutex // guards attempted, failed and errs
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	detail            map[string]string // per-metric sample count and noise band
	reps              []string
	notes             []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, detail: map[string]string{}}
}

// maxErrs bounds how many failure messages are kept for printing.
const maxErrs = 20

// attempt counts one operation; fail counts one that failed. Both are safe
// for concurrent use.
func (r *report) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// set records a metric with its detail line (sample count, noise band).
func (r *report) set(name, unit string, v float64, detail string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.detail[name] = detail
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) rep(format string, args ...any) {
	r.reps = append(r.reps, fmt.Sprintf(format, args...))
}

func (r *report) setupS(times []float64) {
	r.set("setup_s", "s", median(times), fmt.Sprintf("n=%d set-ups, %s", len(times), band(times)))
}

func (r *report) result() result {
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

func (r *report) print(w io.Writer) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-40s %14.6g %-6s %s\n", n, m.Value, m.Unit, r.detail[n])
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "error_ratio=%g (%d failed of %d attempted)\n", ratio, r.failed, r.attempted)
	for _, e := range r.errs {
		fmt.Fprintln(w, "FAIL:", e)
	}
}
