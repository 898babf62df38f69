package main

import "fmt"

// The metric catalogue. BENCHMARK.json lists the same names and units; every
// end-to-end metric is reported by every workload's untraced run, and every
// per-layer metric by every workload's traced run (0 where the workload does
// not exercise or cannot observe the layer). README.md says which end-to-end
// metric each layer metric should move, on which workload.

// endToEnd are the figures a user of the simulator sees, measured with
// tracing off.
var endToEnd = []struct{ name, unit string }{
	{"sim_per_wall", "s/s"},
	{"ref_sim_per_wall", "s/s"},
	{"op_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the single-layer figures of the traced run.
var perLayer = []struct{ name, unit string }{
	// des: the event kernel.
	{"des.events_executed", "count"},
	{"des.events_canceled", "count"},
	{"des.heap_high_water", "count"},
	{"des.heap_high_water_spread", "ratio"},
	{"des.ns_per_event", "ns"},
	{"des.allocs_per_event", "count"},
	{"des.churn_ns", "ns"},
	{"des.cancel_rearm_ns", "ns"},
	// netsim: switches, ports and links.
	{"netsim.tx_packets", "count"},
	{"netsim.drops", "count"},
	{"netsim.queue_high_water_bytes", "bytes"},
	// tcp: host transport.
	{"tcp.flows_completed", "count"},
	{"tcp.retransmissions", "count"},
	{"tcp.timeouts", "count"},
	// pdes: conservative parallel engine.
	{"pdes.run_s", "s"},
	{"pdes.setup_s", "s"},
	{"pdes.cross_lp_packets", "count"},
	{"pdes.parked_arrivals", "count"},
	{"pdes.null_messages", "count"},
	{"pdes.null_messages_spread", "ratio"},
	{"pdes.eit_stalls", "count"},
	{"pdes.eit_stalls_spread", "ratio"},
	{"pdes.inbox_high_water", "count"},
	{"pdes.lp_load_imbalance", "ratio"},
	// approx, micro, nn: the learned fabric models.
	{"approx.model_invocations", "count"},
	{"approx.conflicts", "count"},
	{"approx.prediction_p50_ns", "ns"},
	{"approx.ks_distance", "ratio"},
	{"nn.predict_ns", "ns"},
	{"nn.train_s", "s"},
	{"core.capture_s", "s"},
	// core: the Fig. 5 ratios (recorded, not gated).
	{"core.speedup_x", "x"},
	{"core.event_ratio_x", "x"},
	// scenario pool: warmed baselines and forks.
	{"pool.cold_exec_ms", "ms"},
	{"pool.fork_exec_ms", "ms"},
	{"pool.baseline_builds", "count"},
	{"pool.fork_reuses", "count"},
	{"pool.evictions", "count"},
	// server: the simd HTTP service.
	{"server.requests", "count"},
	{"server.requests_per_s", "1/s"},
	{"server.request_p99_ms", "ms"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.queue_wait_p99_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.dedup", "count"},
	{"server.http_ms", "ms"},
	// obs: what the traced run itself costs.
	{"trace.overhead_pct", "%"},
}

// finish checks the report against the catalogue for the run's mode: every
// end-to-end metric must have been measured; per-layer metrics a workload
// does not exercise read 0. A name outside the catalogue is a bug.
func (r *report) finish(trace bool) error {
	want := endToEnd
	if trace {
		want = perLayer
	}
	units := map[string]string{}
	for _, m := range want {
		units[m.name] = m.unit
	}
	for name := range r.metrics {
		if _, ok := units[name]; !ok {
			return fmt.Errorf("metric %q is not in the catalogue for this mode", name)
		}
	}
	for _, m := range want {
		if _, ok := r.metrics[m.name]; ok {
			continue
		}
		if !trace {
			return fmt.Errorf("end-to-end metric %q was not measured", m.name)
		}
		r.metrics[m.name] = metric{Value: 0, Unit: m.unit}
	}
	for name, m := range r.metrics {
		m.Unit = units[name]
		r.metrics[name] = m
	}
	return nil
}
