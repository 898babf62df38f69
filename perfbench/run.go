package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"approxsim/internal/bench"
	"approxsim/internal/metrics"
	"approxsim/internal/scenario"
)

// Every workload runs one loop over its inputs. An untraced run takes many
// inputs once each, because a run's rate sums over its inputs: that averages
// a slow iteration away as well as a repeat would, while only more inputs
// narrow the draw of inputs from one seed to the next. It then runs the first
// input again, so that every run checks a repeat against the first result,
// and goes on cycling while its wall budget lasts. In a traced run the loop
// takes each of fewer inputs twice in a row, a plain iteration (nil tracer)
// and a traced one, which opens spans and attaches a metrics registry, and
// takes every input twice over, so that counters which do not repeat exactly
// get a spread. Timing figures come from the plain iterations, counters from
// the traced ones, and the difference between the two is the tracing
// overhead.

// loop returns how many inputs the run cycles through and the least number
// of loop iterations: inputs+1 for an untraced run, and four iterations of
// each of tracedInputs for a traced one.
func (c runConfig) loop(inputs, tracedInputs int) (cycle, n int) {
	if c.trace {
		return tracedInputs, 4 * tracedInputs
	}
	return inputs, inputs + 1
}

// iteration maps loop iteration i to an input index among cycle inputs and
// the tracer to use for it (nil for a plain iteration).
func (c runConfig) iteration(i, cycle int) (idx int, tr *tracer) {
	if !c.trace {
		return i % cycle, nil
	}
	if i%2 == 1 {
		tr = c.tr
	}
	return (i / 2) % cycle, tr
}

// opRun is one scenario.Run. With a tracer it also has the run's registry
// snapshot and the heap allocations it made.
type opRun struct {
	res    *scenario.Result
	wall   float64 // outer wall-clock time, seconds
	busy   float64 // outer busy time (see stopwatch), seconds
	snap   *metrics.Snapshot
	allocs uint64
}

// runOp runs sp through scenario.Run and times it. With a tracer it opens a
// span around the call, attaches a metrics registry and counts the run's
// mallocs; without one it is a bare timed call.
func runOp(tr *tracer, name string, parent, trace int64, sp scenario.Spec, opts ...scenario.RunOption) (*opRun, error) {
	var (
		reg           *metrics.Registry
		before, after runtime.MemStats
	)
	if tr != nil {
		reg = metrics.NewRegistry()
		opts = append(opts, scenario.WithRegistry(reg))
		runtime.ReadMemStats(&before)
	}
	end, _ := tr.begin(name, parent, trace)
	w := startWatch()
	res, err := scenario.Run(sp, opts...)
	wall, busy := w.wall(), w.busy()
	end()
	if err != nil {
		return nil, err
	}
	out := &opRun{res: res, wall: wall, busy: busy}
	if tr != nil {
		runtime.ReadMemStats(&after)
		out.snap, out.allocs = reg.Snapshot(), after.Mallocs-before.Mallocs
	}
	return out, nil
}

// sameMetrics reports whether two results committed byte-identical metrics.
func sameMetrics(a, b *scenario.Result) error {
	ab, err := json.Marshal(a.Metrics)
	if err != nil {
		return err
	}
	bb, err := json.Marshal(b.Metrics)
	if err != nil {
		return err
	}
	if !bytes.Equal(ab, bb) {
		return fmt.Errorf("metrics differ:\n  %s\n  %s", ab, bb)
	}
	return nil
}

// metricsHash is the sha256 of a result's marshalled metrics, in hex.
func metricsHash(res *scenario.Result) (string, error) {
	b, err := json.Marshal(res.Metrics)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// repeatCheck fails every repeat of a deterministic output that differs from
// the output's first occurrence. Outputs are kept as short strings (a hash
// for metrics), so the check holds little memory however long the run.
type repeatCheck map[string]string

func (c repeatCheck) same(rep *report, what, got string) {
	if first, ok := c[what]; !ok {
		c[what] = got
	} else if first != got {
		rep.fail(fmt.Errorf("%s did not repeat: %s, then %s", what, first, got))
	}
}

// sameResult checks a result's metrics against the first result of the same
// what.
func (c repeatCheck) sameResult(rep *report, what string, res *scenario.Result) {
	h, err := metricsHash(res)
	if err != nil {
		rep.fail(fmt.Errorf("%s: %v", what, err))
		return
	}
	c.same(rep, what+" metrics", h)
}

// exactCounters are the registry counters that repeat exactly across runs of
// one spec at any LP count; traced runs fail any repeat that changes them.
// Everything else the traced runs read is reported as a median with its
// spread.
var exactCounters = [][2]string{
	{"des", "events_executed"},
	{"des", "events_scheduled"},
	{"des", "events_canceled"},
	{"netsim", "tx_packets"},
	{"netsim", "queue_high_water_bytes"},
	{"pdes", "cross_lp_packets"},
	{"pdes", "parked_arrivals"},
	{"approx", "model_invocations"},
}

// exactKey renders the exact counters of a snapshot for repeatCheck.
func exactKey(s *metrics.Snapshot) string {
	var b strings.Builder
	for _, c := range exactCounters {
		fmt.Fprintf(&b, "%s.%s=%v ", c[0], c[1], counterValue(s, c[0], c[1]))
	}
	return b.String()
}

// counterValue reads a counter or gauge from a snapshot as a float.
func counterValue(s *metrics.Snapshot, group, name string) float64 {
	v, ok := s.Get(group, name)
	if !ok {
		return 0
	}
	switch v.Kind {
	case metrics.KindCounter:
		return float64(v.Counter)
	case metrics.KindGauge:
		return float64(v.Gauge)
	case metrics.KindFloat:
		return v.Float
	}
	return 0
}

// layers collects a traced run's per-layer figures by input. A figure is
// reported as the median over inputs of each input's median; a counter that
// does not repeat exactly also gets a _spread, the median over inputs of the
// input's (max - min) / median.
type layers map[string]map[uint64][]float64

func (l layers) add(name string, input uint64, v float64) {
	if l[name] == nil {
		l[name] = map[uint64][]float64{}
	}
	l[name][input] = append(l[name][input], v)
}

// report sets every figure collected, and the spread of each name in
// variable.
func (l layers) report(rep *report, variable ...string) {
	for name, byInput := range l {
		var meds []float64
		for _, xs := range byInput {
			meds = append(meds, median(xs))
		}
		rep.set(name, median(meds))
	}
	for _, name := range variable {
		var spreads []float64
		for _, xs := range l[name] {
			spreads = append(spreads, spread(xs))
		}
		rep.set(name+"_spread", median(spreads))
	}
}

// addKernelLayers records the des, netsim and tcp layers of one traced run.
func addKernelLayers(l layers, input uint64, r *opRun) {
	s := r.snap
	events := counterValue(s, "des", "events_executed")
	l.add("des.events_executed", input, events)
	l.add("des.events_canceled", input, counterValue(s, "des", "events_canceled"))
	l.add("des.heap_high_water", input, counterValue(s, "des", "heap_high_water"))
	if events > 0 {
		l.add("des.allocs_per_event", input, float64(r.allocs)/events)
	}
	l.add("netsim.tx_packets", input, counterValue(s, "netsim", "tx_packets"))
	l.add("netsim.drops", input, counterValue(s, "netsim", "drops"))
	l.add("netsim.queue_high_water_bytes", input, counterValue(s, "netsim", "queue_high_water_bytes"))
	l.add("tcp.flows_completed", input, counterValue(s, "tcp", "flows_completed"))
	l.add("tcp.retransmissions", input, counterValue(s, "tcp", "retransmissions"))
	l.add("tcp.timeouts", input, counterValue(s, "tcp", "timeouts"))
}

// addNsPerEvent records a plain run's kernel wall time per executed event.
func addNsPerEvent(l layers, input uint64, r *opRun) {
	if p := r.res.Perf; p.Events > 0 {
		l.add("des.ns_per_event", input, p.WallSeconds*1e9/float64(p.Events))
	}
}

// setOverhead reports the traced iterations' wall time against the plain
// ones'.
func setOverhead(rep *report, plain, traced []float64) {
	if len(plain) > 0 && len(traced) > 0 {
		rep.set("trace.overhead_pct", (median(traced)/median(plain)-1)*100)
	}
}

// setIsolationRows times the kernel's innermost loops on their own (the
// internal/bench bodies), for comparison with the end-to-end rows.
func setIsolationRows(tr *tracer, rep *report) {
	end, _ := tr.begin("des.EventChurn", 0, 0)
	churn := testing.Benchmark(func(b *testing.B) { bench.EventChurn(b, true) })
	end()
	end, _ = tr.begin("des.CancelRearm", 0, 0)
	rearm := testing.Benchmark(func(b *testing.B) { bench.CancelRearm(b, true) })
	end()
	rep.set("des.churn_ns", float64(churn.T.Nanoseconds())/float64(churn.N))
	rep.set("des.cancel_rearm_ns", float64(rearm.T.Nanoseconds())/float64(rearm.N))
}
