package main

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"approxsim/internal/core"
	"approxsim/internal/nn"
	"approxsim/internal/scenario"
)

// fig5_approx: the Fig. 5 comparison. A 16-cluster Clos (128 hosts) under
// uniform web-search traffic at load 0.4, simulated in full packet-level
// fidelity (the reference) and in hybrid mode, where every cluster but the
// observed one is replaced by the learned models. Set-up captures the
// boundary of a 2-cluster full run and trains 1x16 LSTM models on it.
const (
	fig5Clusters  = 16
	fig5HorizonMS = 10
	// Only the ~44 flows touching the observed cluster are simulated in
	// hybrid mode, so one seed's hybrid wall time swings by about ±25% (its
	// event count has a coefficient of variation of 0.18 over 48 seeds). An
	// untraced run therefore cycles many seeds (see runConfig.loop): it runs
	// the hybrid on fig5Inputs seeds, and the full reference (6x the cost,
	// and a third of the hybrid's swing) on every fig5RefEvery'th of them.
	// Resampling those 48 seeds' timings, a draw of 16 inputs spreads the
	// hybrid rate by 0.08 (interquartile range over median) from one run's
	// draw to the next, and a draw of 48 by 0.04; 8 full inputs spread the
	// reference by 0.035. A traced run cycles fig5TracedInputs seeds.
	fig5Inputs       = 48
	fig5TracedInputs = 16
	fig5RefEvery     = 6
	fig5Setups       = 3
	// fig5TrainSeed fixes the capture traffic and the training, so every run
	// evaluates the same models and --seed picks only the evaluation traffic.
	// Models trained from different captures differ by more than 2x in
	// hybrid speed, which would drown everything else the run measures.
	fig5TrainSeed = 7
)

func fig5Spec(seed uint64, mode string) scenario.Spec {
	return scenario.Spec{
		Mode:      mode,
		Topology:  scenario.Topology{Kind: "clos", Clusters: fig5Clusters},
		Workload:  scenario.Workload{Pattern: "uniform", Load: 0.4, SizeDist: "websearch"},
		Seed:      seed,
		HorizonMS: fig5HorizonMS,
	}
}

// fig5Setup captures the training boundary and trains the models, timing
// both parts.
func fig5Setup(tr *tracer, seed uint64) (m *core.Models, captureSec, trainSec float64, err error) {
	setup, id := tr.begin("fig5.setup", 0, 0)
	defer setup()
	capSp := scenario.Spec{
		Mode:      "full",
		Topology:  scenario.Topology{Kind: "clos", Clusters: 2},
		Workload:  scenario.Workload{Pattern: "uniform", Load: 0.4, SizeDist: "websearch"},
		Seed:      seed,
		HorizonMS: 6,
		Capture:   "cluster",
	}
	end, _ := tr.begin("scenario.Run full capture=cluster", id, 0)
	w := startWatch()
	res, err := scenario.Run(capSp)
	captureSec = w.busy()
	end()
	if err != nil {
		return nil, 0, 0, err
	}
	end, _ = tr.begin("core.TrainModels", id, 0)
	w = startWatch()
	m, err = core.TrainModels(res.Run.Records, capSp.EngineConfig().TopologyConfig(), core.TrainOptions{
		Hidden: 16, Layers: 1,
		NN:   nn.TrainConfig{LR: 0.02, Batches: 300, Batch: 16, BPTT: 16, Seed: seed},
		Seed: seed,
	})
	trainSec = w.busy()
	end()
	return m, captureSec, trainSec, err
}

// fig5Models runs the set-up fig5Setups times, checks that training is
// deterministic (identical model bytes every time), and returns the first
// models with the fastest capture, training and whole set-up.
func fig5Models(cfg runConfig, rep *report) (m *core.Models, setup, capture, train float64) {
	var firstBytes []byte
	var setups, captures, trains []float64
	for range fig5Setups {
		mi, c, t, err := fig5Setup(cfg.tr, fig5TrainSeed)
		rep.op(err)
		if err != nil {
			continue
		}
		var buf bytes.Buffer
		if err := mi.Save(&buf); err != nil {
			rep.fail(fmt.Errorf("fig5: saving models: %v", err))
			continue
		}
		if m == nil {
			m, firstBytes = mi, buf.Bytes()
		} else if !bytes.Equal(firstBytes, buf.Bytes()) {
			rep.fail(fmt.Errorf("fig5: training with a fixed seed produced different models"))
		}
		setups = append(setups, c+t)
		captures = append(captures, c)
		trains = append(trains, t)
	}
	return m, quantile(setups, 0), quantile(captures, 0), quantile(trains, 0)
}

// runFig5 runs the hybrid on every input and the full reference on every
// fig5RefEvery'th, and checks that both runs' metrics and their KS distance
// repeat exactly.
func runFig5(cfg runConfig, rep *report) error {
	models, setup, capture, train := fig5Models(cfg, rep)
	if models == nil {
		return fmt.Errorf("no model could be trained")
	}
	var (
		hybrid, full        = newRateByInput(), newRateByInput()
		checks              = repeatCheck{}
		lay                 = layers{}
		plain, traced, heap []float64
	)
	cycle, n := cfg.loop(fig5Inputs, fig5TracedInputs)
	start := time.Now()
	for i := 0; i < n || time.Since(start) < cfg.seconds; i++ {
		idx, tr := cfg.iteration(i, cycle)
		seed := subSeed(cfg.seed, idx)
		cfg.heap.open()
		iter, id := tr.begin("fig5.iteration", 0, int64(i+1))
		hy, err := runOp(tr, "scenario.Run hybrid", id, int64(i+1), fig5Spec(seed, "hybrid"), scenario.WithModels(models))
		rep.op(err)
		var fu *opRun
		if err == nil && idx%fig5RefEvery == 0 {
			fu, err = runOp(tr, "scenario.Run full", id, int64(i+1), fig5Spec(seed, "full"))
			rep.op(err)
		}
		var ks float64
		if err == nil && fu != nil {
			end, _ := tr.begin("core.CompareRTT", id, int64(i+1))
			var cmp *core.RTTComparison
			cmp, err = core.CompareRTT(fu.res.Run, hy.res.Run, 128)
			end()
			rep.op(err)
			if err == nil {
				ks = cmp.KS
			}
		}
		iter()
		heap = append(heap, cfg.heap.take())
		if err != nil {
			continue
		}
		hybrid.add(seed, hy.res.Perf.SimSeconds, hy.busy)
		checks.sameResult(rep, fmt.Sprintf("fig5 seed %d hybrid", seed), hy.res)
		busy := hy.busy
		if fu != nil {
			full.add(seed, fu.res.Perf.SimSeconds, fu.busy)
			checks.sameResult(rep, fmt.Sprintf("fig5 seed %d full", seed), fu.res)
			checks.same(rep, fmt.Sprintf("fig5 seed %d KS distance", seed), fmt.Sprint(ks))
			busy += fu.busy
		}
		switch {
		case !cfg.trace:
		case tr == nil:
			plain = append(plain, busy)
			if fu != nil {
				addNsPerEvent(lay, seed, fu)
				lay.add("approx.ks_distance", seed, ks)
				lay.add("core.speedup_x", seed, fu.busy/hy.busy)
				lay.add("core.event_ratio_x", seed, float64(fu.res.Perf.Events)/float64(hy.res.Perf.Events))
			}
		default:
			traced = append(traced, busy)
			s := hy.snap
			checks.same(rep, fmt.Sprintf("fig5 seed %d hybrid registry counters", seed), exactKey(s))
			lay.add("approx.model_invocations", seed, counterValue(s, "approx", "model_invocations"))
			lay.add("approx.conflicts", seed, counterValue(s, "approx", "conflicts"))
			if v, ok := s.Get("approx", "prediction_wall_ns"); ok {
				lay.add("approx.prediction_p50_ns", seed, v.Hist.P50)
			}
			if fu != nil {
				checks.same(rep, fmt.Sprintf("fig5 seed %d full registry counters", seed), exactKey(fu.snap))
				addKernelLayers(lay, seed, fu)
			}
		}
	}
	if cfg.trace {
		lay.report(rep)
		rep.set("core.capture_s", capture)
		rep.set("nn.train_s", train)
		setOverhead(rep, plain, traced)
		setIsolationRows(cfg.tr, rep)
		setPredictRow(cfg.tr, rep, models)
		return nil
	}
	rep.set("sim_per_wall", hybrid.rate())
	rep.set("ref_sim_per_wall", full.rate())
	rep.set("op_p50_ms", median(hybrid.best())*1e3)
	rep.set("setup_s", setup)
	rep.set("peak_heap_mb", median(heap))
	return nil
}

// setPredictRow times one egress-model prediction at the trained shape on
// its own.
func setPredictRow(tr *tracer, rep *report, models *core.Models) {
	end, _ := tr.begin("nn.Predict", 0, 0)
	x := make([]float64, models.Egress.InDim)
	st := models.Egress.NewState()
	pred := testing.Benchmark(func(b *testing.B) {
		for range b.N {
			models.Egress.Predict(x, st)
		}
	})
	end()
	rep.set("nn.predict_ns", float64(pred.T.Nanoseconds())/float64(pred.N))
}
