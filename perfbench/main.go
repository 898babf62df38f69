package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one named benchmark workload. run measures for the given wall
// budget and fills rep; an error means the benchmark itself could not run
// (bad environment, build problem), as opposed to a failed operation, which
// is counted in rep.
type workload struct {
	name string
	run  func(cfg runConfig, rep *report) error
}

var workloads = []workload{
	{"fig1_pdes", runFig1},
	{"fig5_approx", runFig5},
	{"simd_sweep", runSimd},
}

// runConfig is what the command line fixes for one run.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	tr      *tracer // nil unless trace
	heap    *heapSampler
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome: operations attempted and failed (an
// error, a non-2xx reply or an output that disagrees with its reference all
// count as failures), the figures, and the reasons for each failure.
type report struct {
	attempted int
	failed    int
	reasons   []string
	metrics   map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a figure; its unit comes from the catalogue (see finish).
func (r *report) set(name string, value float64) {
	r.metrics[name] = metric{Value: value}
}

// op records one attempted operation; a non-nil err counts it as failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failure found by a check rather than by an operation (for
// example a counter that should repeat exactly and did not).
func (r *report) fail(err error) {
	r.failed++
	if len(r.reasons) < 20 {
		r.reasons = append(r.reasons, err.Error())
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fig1_pdes, fig5_approx or simd_sweep")
		seed    = flag.Uint64("seed", 1, "workload seed; every input is derived from it")
		seconds = flag.Int("seconds", 20, "wall-clock seconds to measure for")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload fig1_pdes|fig5_approx|simd_sweep --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if cfg.trace {
		cfg.tr = newTracer()
	}

	rep := newReport()
	cfg.heap = startHeapSampler()
	err := w.run(cfg, rep)
	cfg.heap.stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := rep.finish(cfg.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if cfg.trace {
		path := filepath.Join(outDir(), "spans", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	for _, reason := range rep.reasons {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", reason)
	}
	printTable(os.Stderr, w.name, rep)

	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// outDir is where run artifacts (span files) go: the build directory the
// wrapper script uses, inside the current checkout.
func outDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// printTable writes the figures in a readable form, one per line.
func printTable(w *os.File, name string, rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench: %s attempted=%d failed=%d\n", name, rep.attempted, rep.failed)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
}
