// Command perfbench is approxsim's benchmark: one program that runs a named
// workload for a fixed wall-clock budget, checks that every output is
// correct, and prints the figures as one JSON object on the last line of
// standard output.
//
//	bash perfbench/run.sh --workload fig1_pdes --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each was chosen and what it stresses):
//
//   - fig1_pdes: the Fig. 1 leaf-spine under the 2-LP conservative engine
//     against the sequential 1-LP reference.
//   - fig5_approx: the Fig. 5 Clos, hybrid (learned models) against full
//     packet-level fidelity.
//   - simd_sweep: the simd scenario service over loopback HTTP.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics instead and writes its spans to
// .bench_build/spans/. Every input is derived from --seed; the program under
// test only ever sees the generated specs and request stream. The benchmark
// calls only the stable entry points (scenario.Run, core.TrainModels,
// core.CompareRTT, the internal/server handler, the internal/bench kernel
// bodies), never the deprecated engine wrappers or Time Warp.
//
// Recorded negative results, so nobody repeats them:
//
//   - Removing the kernel's per-event atomics made the isolated EventChurn
//     loop 2.7x faster and left Fig. 1 wall time unchanged. That is why the
//     traced run reports des.churn_ns and des.cancel_rearm_ns beside the
//     end-to-end rows: a kernel micro-win counts only if the rows move.
//   - Storing heap keys inline in the event heap (40-byte entries) was
//     slower end to end.
//   - LSTM prediction runs near peak for scalar Go at about 0.7 ns per
//     multiply-accumulate: neither 8-way unrolling nor sharing weights across
//     4 or 16 batched states helped a 2x128 model (~160 us per predict).
//     Fig. 5 speed must come from fewer or smaller model calls, not faster
//     kernels; nn.predict_ns tracks the 1x16 shape used here.
package main
