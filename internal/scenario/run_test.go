package scenario

import (
	"encoding/json"
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/metrics"
	"approxsim/internal/obs"
)

// mustMetricsJSON canonicalizes a Metrics block for bit-level comparison —
// the same bytes the server would cache.
func mustMetricsJSON(t *testing.T, m Metrics) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPooledForkMatchesCold is the tentpole's end-to-end determinism check at
// the scenario layer: variants of one fault-sweep family run through the Pool
// (sharing a forked baseline) must produce Metrics bit-identical to cold
// starts of the same specs, and the pool must report the reuse.
func TestPooledForkMatchesCold(t *testing.T) {
	family := Spec{
		Mode:      "pdes",
		Topology:  Topology{Racks: 4},
		Workload:  Workload{Load: 0.3},
		LPs:       2,
		Seed:      7,
		HorizonMS: 2,
	}
	variants := []string{
		"",
		"switch:spine0@500us+600us,detect=50us,jitter=10us",
		"link:tor0-spine1@400us+800us,detect=40us",
	}
	pool := NewPool(4)
	for i, faults := range variants {
		sp := family
		sp.Faults = faults
		cold, err := Run(sp)
		if err != nil {
			t.Fatalf("variant %d cold: %v", i, err)
		}
		pooled, err := Run(sp, WithPool(pool))
		if err != nil {
			t.Fatalf("variant %d pooled: %v", i, err)
		}
		if got, want := mustMetricsJSON(t, pooled.Metrics), mustMetricsJSON(t, cold.Metrics); got != want {
			t.Fatalf("variant %d: pooled metrics diverge from cold start:\n pooled %s\n cold   %s", i, got, want)
		}
		if wantFork := i > 0; pooled.Perf.ForkReused != wantFork {
			t.Fatalf("variant %d: ForkReused = %v, want %v", i, pooled.Perf.ForkReused, wantFork)
		}
		if cold.Perf.ForkReused {
			t.Fatalf("variant %d: cold run claims a fork", i)
		}
	}
	st := pool.Stats()
	if st.Builds != 1 || st.Reuses != uint64(len(variants)-1) || st.Baselines != 1 {
		t.Fatalf("pool stats = %+v, want 1 build, %d reuses, 1 baseline", st, len(variants)-1)
	}
}

// TestPooledWarmPointMatchesCold covers the warm-fork path end to end: the
// baseline simulates healthily to warm_ms once; both variants fork it there.
func TestPooledWarmPointMatchesCold(t *testing.T) {
	family := Spec{
		Mode:      "pdes",
		Topology:  Topology{Racks: 4},
		Workload:  Workload{Load: 0.3},
		LPs:       1,
		Seed:      11,
		HorizonMS: 3,
		WarmMS:    1,
	}
	pool := NewPool(4)
	for i, faults := range []string{
		"switch:spine1@1500us+500us,detect=40us",
		"switch:spine0@1200us+300us,detect=60us",
	} {
		sp := family
		sp.Faults = faults
		cold, err := Run(sp)
		if err != nil {
			t.Fatalf("variant %d cold: %v", i, err)
		}
		pooled, err := Run(sp, WithPool(pool))
		if err != nil {
			t.Fatalf("variant %d pooled: %v", i, err)
		}
		if got, want := mustMetricsJSON(t, pooled.Metrics), mustMetricsJSON(t, cold.Metrics); got != want {
			t.Fatalf("variant %d: warm fork diverges from cold start:\n pooled %s\n cold   %s", i, got, want)
		}
	}
	if st := pool.Stats(); st.Reuses != 1 {
		t.Fatalf("pool stats = %+v, want exactly 1 reuse", st)
	}
}

// TestPooledWarmMultiLPMatchesCold is the bugfix's end-to-end check: a
// multi-LP warm baseline parks whatever cross-LP traffic is in flight at the
// warm point, every fault variant forks it there, and each fork's Metrics are
// bit-identical to a cold start of the same spec. Before the parked buffer
// existed this spec shape was rejected by Validate (and would have dropped
// packets at the warm horizon if it hadn't been).
func TestPooledWarmMultiLPMatchesCold(t *testing.T) {
	for _, sync := range []string{"nullmsg", "barrier"} {
		t.Run(sync, func(t *testing.T) {
			family := Spec{
				Mode:      "pdes",
				Topology:  Topology{Racks: 8},
				Workload:  Workload{Load: 0.9},
				Sync:      sync,
				LPs:       4,
				Seed:      17,
				HorizonMS: 3,
				WarmMS:    1,
			}
			pool := NewPool(4)
			for i, faults := range []string{
				"switch:spine1@1500us+500us,detect=40us",
				"link:tor0-spine0@1200us+600us,detect=60us,jitter=10us",
			} {
				sp := family
				sp.Faults = faults
				cold, err := Run(sp)
				if err != nil {
					t.Fatalf("variant %d cold: %v", i, err)
				}
				pooled, err := Run(sp, WithPool(pool))
				if err != nil {
					t.Fatalf("variant %d pooled: %v", i, err)
				}
				if got, want := mustMetricsJSON(t, pooled.Metrics), mustMetricsJSON(t, cold.Metrics); got != want {
					t.Fatalf("variant %d: multi-LP warm fork diverges from cold start:\n pooled %s\n cold   %s", i, got, want)
				}
				if wantFork := i > 0; pooled.Perf.ForkReused != wantFork {
					t.Fatalf("variant %d: ForkReused = %v, want %v", i, pooled.Perf.ForkReused, wantFork)
				}
				if pooled.Metrics.Completed == 0 {
					t.Fatalf("variant %d: degenerate run: %+v", i, pooled.Metrics)
				}
			}
			if st := pool.Stats(); st.Builds != 1 || st.Reuses != 1 {
				t.Fatalf("pool stats = %+v, want 1 build and 1 reuse", st)
			}
		})
	}
}

// TestRunDeterminism: identical specs produce bit-identical Metrics on
// repeated cold runs, for every engine mode that needs no trained models.
func TestRunDeterminism(t *testing.T) {
	specs := map[string]Spec{
		"full":  {Mode: "full", HorizonMS: 1, Workload: Workload{Load: 0.3}, Seed: 5},
		"fluid": {Mode: "fluid", HorizonMS: 1, Workload: Workload{Load: 0.3}, Seed: 5},
		"pdes":  {Mode: "pdes", HorizonMS: 1, Workload: Workload{Load: 0.3}, Seed: 5, LPs: 2},
	}
	for name, sp := range specs {
		t.Run(name, func(t *testing.T) {
			a, err := Run(sp)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(sp)
			if err != nil {
				t.Fatal(err)
			}
			if ja, jb := mustMetricsJSON(t, a.Metrics), mustMetricsJSON(t, b.Metrics); ja != jb {
				t.Fatalf("two runs of one spec diverge:\n %s\n %s", ja, jb)
			}
			if a.Key != b.Key || a.Key == "" {
				t.Fatalf("keys: %q vs %q", a.Key, b.Key)
			}
			if a.Metrics.Flows == 0 || a.Metrics.Completed == 0 {
				t.Fatalf("degenerate run: %+v", a.Metrics)
			}
		})
	}
}

// TestRunRejectsInvalid: Run refuses a spec Validate refuses.
func TestRunRejectsInvalid(t *testing.T) {
	if _, err := Run(Spec{Mode: "pdes", Sync: "lockstep"}); err == nil {
		t.Fatal("Run accepted an invalid spec")
	}
	if _, err := Run(Spec{Mode: "hybrid"}); err == nil {
		t.Fatal("hybrid without models must fail")
	}
}

// TestPoolEviction: the retention cap holds and evicted families rebuild.
func TestPoolEviction(t *testing.T) {
	pool := NewPool(1)
	a := Spec{Mode: "pdes", Topology: Topology{Racks: 4}, Workload: Workload{Load: 0.3}, LPs: 1, Seed: 1, HorizonMS: 1}
	b := a
	b.Seed = 2
	for _, sp := range []Spec{a, b, a} { // a evicted by b, then rebuilt
		if _, err := Run(sp, WithPool(pool)); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.Baselines != 1 {
		t.Fatalf("retained %d baselines with max 1", st.Baselines)
	}
	if st.Builds != 3 || st.Reuses != 0 {
		t.Fatalf("stats %+v, want 3 builds 0 reuses", st)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}

// TestPoolLRUPromotion: re-touching a family protects it from eviction — the
// least-recently-USED baseline goes, not the oldest-built.
func TestPoolLRUPromotion(t *testing.T) {
	pool := NewPool(2)
	mk := func(seed uint64) Spec {
		return Spec{Mode: "pdes", Topology: Topology{Racks: 4}, Workload: Workload{Load: 0.3},
			LPs: 1, Seed: seed, HorizonMS: 1}
	}
	// Build A, build B, touch A (fork reuse), then build C: under LRU the
	// victim is B, so re-running A must still fork-reuse its baseline.
	for _, sp := range []Spec{mk(1), mk(2), mk(1), mk(3), mk(1)} {
		if _, err := Run(sp, WithPool(pool)); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.Builds != 3 || st.Reuses != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 3 builds / 2 reuses of A / 1 eviction (of B)", st)
	}
}

// TestRunPublishesProgress: a run handed a Progress must finish it with the
// final committed time and event count, for every engine mode.
func TestRunPublishesProgress(t *testing.T) {
	for name, sp := range map[string]Spec{
		"pdes":   {Mode: "pdes", Topology: Topology{Racks: 4}, Workload: Workload{Load: 0.3}, LPs: 2, Seed: 5, HorizonMS: 1},
		"full":   {Mode: "full", Workload: Workload{Load: 0.3}, Seed: 5, HorizonMS: 1},
		"pooled": {Mode: "pdes", Topology: Topology{Racks: 4}, Workload: Workload{Load: 0.3}, LPs: 1, Seed: 6, HorizonMS: 1},
	} {
		t.Run(name, func(t *testing.T) {
			prog := obs.NewProgress(des.Time(sp.HorizonMS * float64(des.Millisecond)))
			opts := []RunOption{WithProgress(prog)}
			if name == "pooled" {
				opts = append(opts, WithPool(NewPool(2)))
			}
			res, err := Run(sp, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !prog.Done() {
				t.Fatal("progress not marked done")
			}
			if prog.Events() != res.Perf.Events || prog.Events() == 0 {
				t.Fatalf("progress events %d, perf events %d", prog.Events(), res.Perf.Events)
			}
			if prog.Committed() < des.Time(sp.HorizonMS*float64(des.Millisecond)) {
				t.Fatalf("final committed %v below horizon", prog.Committed())
			}
		})
	}
}

// TestPoolIneligibleFallsCold: timewarp and registry/option-carrying runs
// bypass the pool rather than corrupting a shared baseline.
func TestPoolIneligibleFallsCold(t *testing.T) {
	pool := NewPool(2)
	sp := Spec{Mode: "pdes", Topology: Topology{Racks: 4}, Workload: Workload{Load: 0.3},
		LPs: 2, Seed: 3, HorizonMS: 1, Sync: "timewarp"}
	res, err := Run(sp, WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	if res.Perf.ForkReused {
		t.Fatal("timewarp run claims a fork")
	}
	if st := pool.Stats(); st.Builds != 0 {
		t.Fatalf("timewarp run touched the pool: %+v", st)
	}
}

// TestHeapHoldsLiveWork pins the kernel's dead-event compaction at the
// scenario layer. Every TCP RTO re-arm cancels a timer whose timestamp lies a
// full RTO ahead; with cancellation alone those dead timers ride the heap
// until they expire, so a 16-rack run's heap high-water tracks its cancel
// count. With compaction the heap holds only about the live work.
func TestHeapHoldsLiveWork(t *testing.T) {
	reg := metrics.NewRegistry()
	sp := Spec{
		Mode:      "pdes",
		Topology:  Topology{Racks: 16},
		Workload:  Workload{Load: 0.3},
		LPs:       1,
		Seed:      1,
		HorizonMS: 3,
	}
	if _, err := Run(sp, WithRegistry(reg)); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	canceled := s.Counter("des", "events_canceled")
	hw := s.Gauge("des", "heap_high_water")
	t.Logf("heap high-water %d, cancels %d", hw, canceled)
	if canceled < 1000 {
		t.Fatalf("only %d cancels: the workload no longer exercises RTO re-arming", canceled)
	}
	if uint64(hw)*5 > canceled {
		t.Fatalf("heap high-water %d against %d cancels: dead timers are riding the heap", hw, canceled)
	}
}
