package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"approxsim/internal/scenario"
	"approxsim/internal/server"
)

// simd_sweep: the scenario service. An in-process simd server at its default
// configuration (2 workers, a 256-entry result cache, an 8-baseline pool) on
// a loopback listener serves a closed loop of 2 clients, each sending its
// next POST /v1/run only after the previous reply. The stream is a sequence
// of sweeps: each sweep asks one family of warm-forkable leaf-spine specs
// for simdSweep fault variants. The catalogue has more families than the
// pool retains and more specs than the result cache holds, so the stream
// itself mixes cache hits, forks of resident baselines, cold baseline
// builds and evictions from both. Set-up warms the server with every
// family's healthy baseline. The catalogue is the same in every run; --seed
// picks the stream. (Each family simulates only a handful of flows, so
// families drawn per seed would make a run's cost a property of the draw.)
const (
	simdClients = 2
	// simdFamilies exceeds the pool's default bound of 8 baselines, and
	// simdFamilies*simdVariants = 320 specs the result cache's default bound
	// of 256 entries.
	simdFamilies = 16
	simdVariants = 20
	simdSweep    = 4
	simdSetups   = 5
	// simdVerifyPasses is how often each spec seen is re-run cold, to check
	// the replies and to time the sequential reference.
	simdVerifyPasses = 2
	simdHorizonMS    = 2
)

// simdFault is fault variant v of every family: the healthy baseline for 0,
// otherwise one link or switch outage after the 1 ms warm point, so the
// variant forks the family's warmed baseline.
func simdFault(v int) string {
	if v == 0 {
		return ""
	}
	at := 1100 + 40*v
	if v%5 == 0 {
		return fmt.Sprintf("switch:spine%d@%dus+400us,detect=50us", v%4, at)
	}
	return fmt.Sprintf("link:tor%d-spine%d@%dus+500us,detect=40us", v%4, (v/4)%4, at)
}

// simdSpec is catalogue entry i: family i/simdVariants, variant
// i%simdVariants.
func simdSpec(i int) scenario.Spec {
	fam, variant := i/simdVariants, i%simdVariants
	return scenario.Spec{
		Mode:      "pdes",
		Topology:  scenario.Topology{Kind: "leafspine", Racks: 4},
		Workload:  scenario.Workload{Pattern: "uniform", Load: []float64{0.3, 0.5}[fam%2], SizeDist: "websearch"},
		Faults:    simdFault(variant),
		Sync:      "nullmsg",
		Partition: "contiguous",
		LPs:       1,
		Seed:      uint64(fam + 1),
		HorizonMS: simdHorizonMS,
		WarmMS:    1,
	}
}

// simdPick is request i of the stream, as an index into the catalogue:
// sweep i/simdSweep picks a family, and each of its requests a variant. (Two
// requests of one sweep may pick the same variant; the second then joins
// the first in flight or hits the cache.)
func simdPick(seed uint64, i int) int {
	fam := int(subSeed(seed^0x51d5, i/simdSweep) % simdFamilies)
	return fam*simdVariants + int(subSeed(seed^0x5eed, i)%simdVariants)
}

// simdReply is one request as the client saw it. Only a hash of the reply's
// metrics is kept, so the benchmark's own records stay small next to the
// server's heap.
type simdReply struct {
	spec    int
	latency float64 // seconds, send to decoded reply
	runID   string
	cached  bool
	forked  bool
	traced  bool
	metrics [sha256.Size]byte
	err     error
}

// simdService is one in-process server on a loopback listener.
type simdService struct {
	srv    *server.Server
	http   *http.Server
	base   string
	client *http.Client
	served chan struct{}
}

// startSimd starts a server at its default configuration on a fresh loopback
// listener. history bounds the run registry (0 keeps the server default).
func startSimd(history int) (*simdService, error) {
	srv := server.New(server.Config{RunHistory: history})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &simdService{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: simdClients}},
		served: make(chan struct{}),
	}
	go func() {
		defer close(s.served)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (s *simdService) stop() {
	s.srv.BeginShutdown()
	s.client.CloseIdleConnections()
	_ = s.http.Shutdown(context.Background())
	<-s.served
}

// post sends one spec body and decodes the reply; a transport error, a
// non-2xx status or an error in the reply is an error.
func (s *simdService) post(body []byte) (server.RunResponse, error) {
	var rr server.RunResponse
	resp, err := s.client.Post(s.base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return rr, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return rr, err
	}
	if err := json.Unmarshal(blob, &rr); err != nil {
		return rr, fmt.Errorf("HTTP %d: undecodable reply: %v", resp.StatusCode, err)
	}
	if resp.StatusCode/100 != 2 || rr.Error != "" {
		return rr, fmt.Errorf("HTTP %d: %s", resp.StatusCode, rr.Error)
	}
	return rr, nil
}

// request posts catalogue entry spec and records the reply as the client
// saw it.
func (s *simdService) request(bodies [][]byte, spec int) simdReply {
	start := time.Now()
	rr, err := s.post(bodies[spec])
	return simdReply{spec: spec, latency: time.Since(start).Seconds(), runID: rr.RunID, cached: rr.Cached,
		forked: rr.ForkReused, metrics: sha256.Sum256(rr.Metrics), err: err}
}

func (s *simdService) get(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// simdBodies marshals every spec of the catalogue once.
func simdBodies() ([][]byte, error) {
	var bodies [][]byte
	for i := range simdFamilies * simdVariants {
		b, err := json.Marshal(simdSpec(i))
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	return bodies, nil
}

// simdPhase is one session of requests against one server: a warm-up or a
// closed loop.
type simdPhase struct {
	replies []simdReply
	elapsed float64 // busy time, seconds (see stopwatch)
	// busyShare is elapsed over the phase's wall-clock time. One request is
	// too short to time against the steal counter, so latencies are scaled
	// to busy time by the share of the whole phase.
	busyShare float64
	// heap is the peak live heap of each second of a closed loop, in MB.
	heap  []float64
	runs  map[string]server.RunRecord
	stats server.Stats
}

// simdWarm starts a server and serves the healthy baseline of every family
// once, so the measured loop starts from a warm cache and pool. history
// bounds the run registry (0 keeps the server default). The returned phase
// holds the warm-up replies; its elapsed time is the set-up time.
func simdWarm(tr *tracer, bodies [][]byte, history int) (*simdService, *simdPhase, error) {
	end, _ := tr.begin("simd.setup", 0, 0)
	defer end()
	w := startWatch()
	svc, err := startSimd(history)
	if err != nil {
		return nil, nil, err
	}
	ph := &simdPhase{}
	for fam := range simdFamilies {
		ph.replies = append(ph.replies, svc.request(bodies, fam*simdVariants))
	}
	ph.elapsed = w.busy()
	return svc, ph, nil
}

// simdLoop drives the closed loop against svc for the run's seconds and
// stops the server. In a traced run every other request gets a span, and
// the run registry and service counters are read before stopping.
func simdLoop(cfg runConfig, svc *simdService, bodies [][]byte) (*simdPhase, error) {
	defer svc.stop()
	var (
		next    atomic.Int64
		mu      sync.Mutex
		replies []simdReply
		wg      sync.WaitGroup
	)
	w := startWatch()
	for range simdClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []simdReply
			for w.wall() < cfg.seconds.Seconds() {
				i := int(next.Add(1) - 1)
				spec := simdPick(cfg.seed, i)
				tr := cfg.tr
				if i%2 == 0 {
					tr = nil
				}
				end, _ := tr.begin("POST /v1/run", 0, int64(i+1))
				r := svc.request(bodies, spec)
				end()
				r.traced = tr != nil
				mine = append(mine, r)
			}
			mu.Lock()
			replies = append(replies, mine...)
			mu.Unlock()
		}()
	}
	// While the clients run, take the peak live heap of each second.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var heap []float64
	tick := time.NewTicker(time.Second)
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-tick.C:
			heap = append(heap, cfg.heap.take())
		}
	}
	tick.Stop()
	if len(heap) == 0 {
		heap = append(heap, cfg.heap.take())
	}
	wall, busy := w.wall(), w.busy()
	ph := &simdPhase{replies: replies, elapsed: busy, busyShare: busy / wall, heap: heap, runs: map[string]server.RunRecord{}}
	if !cfg.trace {
		return ph, nil
	}
	end, _ := cfg.tr.begin("GET /v1/runs", 0, 0)
	var runs server.RunsResponse
	err := svc.get("/v1/runs", &runs)
	end()
	if err != nil {
		return nil, err
	}
	for _, r := range runs.Runs {
		ph.runs[r.ID] = r
	}
	end, _ = cfg.tr.begin("GET /v1/stats", 0, 0)
	err = svc.get("/v1/stats", &ph.stats)
	end()
	if err != nil {
		return nil, err
	}
	return ph, nil
}

// simdVerify runs every spec the clients saw as a cold scenario.Run, without
// the pool or the cache, simdVerifyPasses times over, and fails every reply
// (and every repeat) whose metrics are not byte-identical to the first cold
// run. It returns the cold runs' simulated-time rate over each spec's fastest
// pass (see rateByInput). One run takes about 16 ms, not much more than the
// steal counter's resolution, so each run's wall time is scaled to busy time
// by the busy share of its whole pass.
func simdVerify(tr *tracer, rep *report, phases ...*simdPhase) float64 {
	bySpec := map[int][]simdReply{}
	var order []int
	for _, ph := range phases {
		for _, r := range ph.replies {
			rep.op(r.err)
			if r.err != nil {
				continue
			}
			if _, ok := bySpec[r.spec]; !ok {
				order = append(order, r.spec)
			}
			bySpec[r.spec] = append(bySpec[r.spec], r)
		}
	}
	ref := newRateByInput()
	want := map[int][]byte{}
	for range simdVerifyPasses {
		walls, virtual := map[int]float64{}, map[int]float64{}
		w := startWatch()
		for _, spec := range order {
			r, err := runOp(tr, "scenario.Run pdes cold reference", 0, 0, simdSpec(spec))
			rep.op(err)
			if err != nil {
				continue
			}
			res := r.res
			walls[spec], virtual[spec] = r.wall, res.Perf.SimSeconds
			got, err := json.Marshal(res.Metrics)
			if err != nil {
				rep.fail(err)
				continue
			}
			if first, ok := want[spec]; ok {
				if !bytes.Equal(first, got) {
					rep.fail(fmt.Errorf("simd spec %d: cold runs disagree:\n  %s\n  %s", spec, first, got))
				}
				continue
			}
			want[spec] = got
			sum := sha256.Sum256(got)
			for _, r := range bySpec[spec] {
				if r.metrics != sum {
					rep.fail(fmt.Errorf("simd spec %d (cached=%v fork=%v): reply metrics differ from a cold run's %s",
						spec, r.cached, r.forked, got))
				}
			}
		}
		share := w.busy() / w.wall()
		for spec, wall := range walls {
			ref.add(uint64(spec), virtual[spec], wall*share)
		}
	}
	return ref.rate()
}

// logMix writes how the phase's replies were produced to standard error.
func logMix(ph *simdPhase) {
	var cached, forked, cold int
	for _, r := range ph.replies {
		switch {
		case r.err != nil:
		case r.cached:
			cached++
		case r.forked:
			forked++
		default:
			cold++
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: simd_sweep %d requests in %.1fs: %d cached, %d forked, %d cold\n",
		len(ph.replies), ph.elapsed, cached, forked, cold)
}

// latencies returns the client-side latencies of the phase's successful
// requests: all of them, and split into plain and traced requests.
func latencies(ph *simdPhase) (all, plain, traced []float64) {
	for _, r := range ph.replies {
		switch {
		case r.err != nil:
			continue
		case r.traced:
			traced = append(traced, r.latency)
		default:
			plain = append(plain, r.latency)
		}
		all = append(all, r.latency)
	}
	return all, plain, traced
}

func runSimd(cfg runConfig, rep *report) error {
	bodies, err := simdBodies()
	if err != nil {
		return err
	}
	history := 0
	if cfg.trace {
		// Keep every run record, for the per-request exec and queue times.
		history = 1 << 20
	}
	// Warm simdSetups servers for the set-up time; the last one serves the
	// loop.
	var (
		setups []float64
		phases []*simdPhase
		svc    *simdService
	)
	for range simdSetups {
		if svc != nil {
			svc.stop()
		}
		var warm *simdPhase
		if svc, warm, err = simdWarm(cfg.tr, bodies, history); err != nil {
			return err
		}
		setups = append(setups, warm.elapsed)
		phases = append(phases, warm)
	}
	cfg.heap.open()
	ph, err := simdLoop(cfg, svc, bodies)
	if err != nil {
		return err
	}
	ref := simdVerify(cfg.tr, rep, append(phases, ph)...)
	lat, plain, traced := latencies(ph)
	if len(lat) == 0 || ref == 0 {
		return errors.New("no request succeeded")
	}
	logMix(ph)
	if cfg.trace {
		setSimdLayers(rep, ph, lat)
		setOverhead(rep, plain, traced)
		setIsolationRows(cfg.tr, rep)
		return nil
	}
	rep.set("sim_per_wall", float64(len(lat))*simdHorizonMS/1e3/ph.elapsed)
	rep.set("ref_sim_per_wall", ref)
	rep.set("op_p50_ms", median(lat)*ph.busyShare*1e3)
	rep.set("setup_s", quantile(setups, 0))
	rep.set("peak_heap_mb", median(ph.heap))
	return nil
}

// setSimdLayers reports the pool and server layers from the loop's run
// records and service counters (which include the serving server's
// warm-up); lat are the loop's request latencies.
func setSimdLayers(rep *report, ph *simdPhase, lat []float64) {
	var coldExec, forkExec, queueWait, httpMS []float64
	for _, r := range ph.replies {
		if r.err != nil {
			continue
		}
		rec, ok := ph.runs[r.runID]
		if !ok {
			rep.fail(fmt.Errorf("simd: run %q missing from /v1/runs", r.runID))
			continue
		}
		switch rec.Disposition {
		case server.DispositionCold:
			coldExec = append(coldExec, rec.ExecMS)
			queueWait = append(queueWait, rec.QueueWaitMS)
		case server.DispositionFork:
			forkExec = append(forkExec, rec.ExecMS)
			queueWait = append(queueWait, rec.QueueWaitMS)
		}
		httpMS = append(httpMS, r.latency*1e3-rec.QueueWaitMS-rec.ExecMS)
	}
	st := ph.stats
	rep.set("pool.cold_exec_ms", median(coldExec))
	rep.set("pool.fork_exec_ms", median(forkExec))
	rep.set("pool.baseline_builds", float64(st.Pool.Builds))
	rep.set("pool.fork_reuses", float64(st.Pool.Reuses))
	rep.set("pool.evictions", float64(st.Pool.Evictions))
	rep.set("server.requests", float64(len(lat)))
	rep.set("server.requests_per_s", float64(len(lat))/ph.elapsed)
	rep.set("server.request_p99_ms", quantile(lat, 0.99)*1e3)
	rep.set("server.queue_wait_p50_ms", median(queueWait))
	rep.set("server.queue_wait_p99_ms", quantile(queueWait, 0.99))
	if st.Requests > 0 {
		rep.set("server.cache_hit_ratio", float64(st.CacheHits)/float64(st.Requests))
	}
	rep.set("server.dedup", float64(st.DedupJoins))
	rep.set("server.http_ms", median(httpMS))
}
