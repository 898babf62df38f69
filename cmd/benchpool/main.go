// Command benchpool is the event-pool performance regression gate. It runs
// the shared benchmark bodies from internal/bench through testing.Benchmark,
// writes the results as JSON (BENCH_pool.json in CI), and exits nonzero when
// the pooled hot path allocates more per operation than the pinned ceiling —
// the zero-allocation steady state is an acceptance criterion, not a nicety.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"approxsim/internal/bench"
)

// result is one benchmark's figures as written to the JSON report. Extra
// carries the benchmark's ReportMetric values (rollbacks/op, antis/op,
// lazy_saved/op for the Time Warp workload; heap_high_water for RTO re-arm).
type result struct {
	N           int                `json:"n"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

func run(f func(b *testing.B)) result {
	r := testing.Benchmark(f)
	res := result{
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if len(r.Extra) > 0 {
		res.Extra = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			res.Extra[k] = v
		}
	}
	return res
}

func main() {
	out := flag.String("o", "BENCH_pool.json", "output JSON path (- for stdout)")
	maxAllocs := flag.Int64("max-allocs", 0, "fail if a pooled kernel benchmark exceeds this many allocs/op")
	quick := flag.Bool("quick", false, "CI smoke mode: shorter Time Warp workload")
	flag.Parse()

	cfg := bench.DefaultLeafSpine
	if *quick {
		cfg = bench.QuickLeafSpine
	}

	report := struct {
		Quick            bool              `json:"quick"`
		MaxAllocsCeiling int64             `json:"max_allocs_ceiling"`
		Benchmarks       map[string]result `json:"benchmarks"`
	}{Quick: *quick, MaxAllocsCeiling: *maxAllocs, Benchmarks: map[string]result{}}

	pooled := map[string]bool{}
	add := func(name string, isPooledKernel bool, f func(b *testing.B)) {
		fmt.Fprintf(os.Stderr, "benchpool: running %s...\n", name)
		report.Benchmarks[name] = run(f)
		pooled[name] = isPooledKernel
	}

	add("event_churn_pooled", true, func(b *testing.B) { bench.EventChurn(b, true) })
	add("event_churn_unpooled", false, func(b *testing.B) { bench.EventChurn(b, false) })
	add("cancel_rearm_pooled", true, func(b *testing.B) { bench.CancelRearm(b, true) })
	add("cancel_rearm_unpooled", false, func(b *testing.B) { bench.CancelRearm(b, false) })
	add("rto_rearm_pooled", true, func(b *testing.B) { bench.RTORearm(b, true) })
	add("timewarp_leafspine_lazy", false, func(b *testing.B) { bench.TimewarpLeafSpine(b, true, cfg) })
	add("timewarp_leafspine_eager", false, func(b *testing.B) { bench.TimewarpLeafSpine(b, false, cfg) })

	blob, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpool:", err)
		os.Exit(2)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
	} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchpool:", err)
		os.Exit(2)
	}

	failed := false
	for name, res := range report.Benchmarks {
		if pooled[name] && res.AllocsPerOp > *maxAllocs {
			fmt.Fprintf(os.Stderr, "benchpool: FAIL %s: %d allocs/op exceeds ceiling %d\n",
				name, res.AllocsPerOp, *maxAllocs)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchpool: ok (pooled hot path within %d allocs/op)\n", *maxAllocs)
}
