package main

import (
	"fmt"
	"time"

	"approxsim/internal/scenario"
)

// fig1_pdes: the Fig. 1 substrate. A 64-rack leaf-spine (256 hosts) under
// uniform web-search traffic at load 0.3, run as one cold scenario.Run per
// operation: the conservative PDES engine with 2 LPs (null messages,
// contiguous placement) against the sequential 1-LP reference, which must
// commit identical metrics.
const (
	fig1Racks     = 64
	fig1HorizonMS = 5
	// fig1Inputs is how many traffic seeds an untraced run cycles through
	// (see runConfig.loop), fig1TracedInputs a traced one. One seed's event
	// count swings by about ±12%, so a run spreads over many seeds to make
	// its rate a property of the workload rather than of the draw.
	fig1Inputs       = 16
	fig1TracedInputs = 8
)

func fig1Spec(seed uint64, lps int) scenario.Spec {
	return scenario.Spec{
		Mode:      "pdes",
		Topology:  scenario.Topology{Kind: "leafspine", Racks: fig1Racks},
		Workload:  scenario.Workload{Pattern: "uniform", Load: 0.3, SizeDist: "websearch"},
		Sync:      "nullmsg",
		Partition: "contiguous",
		LPs:       lps,
		Seed:      seed,
		HorizonMS: fig1HorizonMS,
	}
}

// runFig1 runs every input at lps=1 and lps=2 and checks that they commit
// the same metrics and that the 2-LP run's exact counters repeat.
func runFig1(cfg runConfig, rep *report) error {
	var (
		fast, ref           = newRateByInput(), newRateByInput()
		setup1, setup2      = newRateByInput(), newRateByInput()
		checks              = repeatCheck{}
		lay                 = layers{}
		plain, traced, heap []float64
	)
	cycle, n := cfg.loop(fig1Inputs, fig1TracedInputs)
	start := time.Now()
	for i := 0; i < n || time.Since(start) < cfg.seconds; i++ {
		idx, tr := cfg.iteration(i, cycle)
		seed := subSeed(cfg.seed, idx)
		cfg.heap.open()
		iter, id := tr.begin("fig1.iteration", 0, int64(i+1))
		r1, err := runOp(tr, "scenario.Run pdes lps=1", id, int64(i+1), fig1Spec(seed, 1))
		rep.op(err)
		var r2 *opRun
		if err == nil {
			r2, err = runOp(tr, "scenario.Run pdes lps=2", id, int64(i+1), fig1Spec(seed, 2))
			rep.op(err)
		}
		iter()
		heap = append(heap, cfg.heap.take())
		if err != nil {
			continue
		}
		p := r2.res.Perf
		ref.add(seed, r1.res.Perf.SimSeconds, r1.busy)
		fast.add(seed, p.SimSeconds, r2.busy)
		// Set-up is the outer wall time less the run's own: steal over the
		// run cannot be split between the two.
		setup1.add(seed, 0, r1.wall-r1.res.Perf.WallSeconds)
		setup2.add(seed, 0, r2.wall-p.WallSeconds)
		if err := sameMetrics(r1.res, r2.res); err != nil {
			rep.fail(fmt.Errorf("fig1 seed %d: lps=2 disagrees with the lps=1 reference: %v", seed, err))
		}
		// Null messages are not among these: they depend on how the LPs
		// interleave.
		checks.same(rep, fmt.Sprintf("fig1 seed %d lps=2 perf counters", seed),
			fmt.Sprintf("events=%d cross_lp_packets=%d parked_arrivals=%d", p.Events, p.CrossPkts, p.ParkedArrivals))
		switch {
		case !cfg.trace:
		case tr == nil:
			plain = append(plain, r2.busy)
			lay.add("pdes.run_s", seed, p.WallSeconds)
			lay.add("pdes.setup_s", seed, r2.wall-p.WallSeconds)
			addNsPerEvent(lay, seed, r2)
		default:
			traced = append(traced, r2.busy)
			s := r2.snap
			checks.same(rep, fmt.Sprintf("fig1 seed %d lps=2 registry counters", seed), exactKey(s))
			addKernelLayers(lay, seed, r2)
			for _, name := range []string{"cross_lp_packets", "parked_arrivals", "null_messages", "eit_stalls", "inbox_high_water", "lp_load_imbalance"} {
				lay.add("pdes."+name, seed, counterValue(s, "pdes", name))
			}
		}
	}
	if cfg.trace {
		lay.report(rep, "des.heap_high_water", "pdes.null_messages", "pdes.eit_stalls")
		setOverhead(rep, plain, traced)
		setIsolationRows(cfg.tr, rep)
		return nil
	}
	rep.set("sim_per_wall", fast.rate())
	rep.set("ref_sim_per_wall", ref.rate())
	rep.set("op_p50_ms", median(fast.best())*1e3)
	rep.set("setup_s", median(setup1.best())+median(setup2.best()))
	rep.set("peak_heap_mb", median(heap))
	return nil
}
