package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// subSeed derives the i'th input seed of a run from the workload seed
// (splitmix64), kept below 2^32 so it survives any JSON round trip.
func subSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) & 0xffffffff
}

// quantile returns the q'th quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is (max - min) / median: how far a counter that does not repeat
// exactly moved across the run's repeats.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 1) - quantile(xs, 0)) / m
}

// rateByInput is a simulated-time rate over a fixed set of inputs (keyed by
// seed or catalogue index): virtual seconds of every input seen, over the sum
// of each input's fastest wall time. Interference from other tenants of a
// shared host only ever adds time. On a 2-vCPU KVM guest, neighbours' cache
// and memory contention spread repeats of one 1-LP fig1 run over 0.63-1.18 s
// within five minutes, while a pure arithmetic loop moved 3%. The fastest
// repeat of an input still moves when the program changes and least when the
// neighbours do. Taking each input's best first also keeps an input that
// happened to run more often from weighing more.
type rateByInput struct {
	virtual map[uint64]float64
	walls   map[uint64][]float64
}

func newRateByInput() *rateByInput {
	return &rateByInput{virtual: map[uint64]float64{}, walls: map[uint64][]float64{}}
}

func (r *rateByInput) add(input uint64, virtualSec, wallSec float64) {
	r.virtual[input] = virtualSec
	r.walls[input] = append(r.walls[input], wallSec)
}

func (r *rateByInput) rate() float64 {
	var v, w float64
	for input, walls := range r.walls {
		v += r.virtual[input]
		w += quantile(walls, 0)
	}
	if w == 0 {
		return 0
	}
	return v / w
}

// best returns each input's fastest wall time, in seconds.
func (r *rateByInput) best() []float64 {
	var out []float64
	for _, walls := range r.walls {
		out = append(out, quantile(walls, 0))
	}
	return out
}

// heapSampler polls the Go heap's live bytes (as marked by the latest
// garbage collection) and keeps the peak of each window between calls to
// take. Sampling the heap's object bytes instead would add whatever garbage
// the collector had not yet reached, which swings by a third from run to run
// with GC timing alone. Live bytes change only when a collection ends, so
// whether a window's peak is seen depends on GC timing too; workloads report
// the median of many windows' peaks rather than the single largest. The
// runtime/metrics read does not stop the world, so polling every few
// milliseconds costs the measured work nothing measurable.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			for cur := h.peak.Load(); v > cur && !h.peak.CompareAndSwap(cur, v); cur = h.peak.Load() {
			}
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak live heap seen since the previous take (or the
// start), in MB, and opens a new window.
func (h *heapSampler) take() float64 { return float64(h.peak.Swap(0)) / (1 << 20) }

// open collects garbage and opens a new window, so the window's peak is the
// live heap of the work done in it rather than what earlier work left for
// the collector. It also starts each timed run on a clean heap, so a run
// does not pay for collecting its predecessor's garbage.
func (h *heapSampler) open() {
	runtime.GC()
	h.take()
}

// stop ends the sampler.
func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}

// span is one timed call from the benchmark into a layer of the program.
// Spans of one request or iteration share Trace; Parent is 0 at the top.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it, plus its id
// (the parent for nested spans).
func (t *tracer) begin(name string, parent, trace int64) (end func(), id int64) {
	if t == nil {
		return func() {}, 0
	}
	t.mu.Lock()
	id = int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}, id
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var curLo, curHi int64 = 0, -1
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

// write saves the spans and the per-name self times (milliseconds) as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		SelfMS map[string]float64 `json:"self_ms"`
	}{t.spans, t.selfTimes()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// stopwatch times a call by its busy time: wall-clock time less the part of
// it the hypervisor took away. Steal is time a vCPU was ready to run while
// the hypervisor ran another guest; on a shared 2-vCPU guest it reached
// 20-40% of some minutes, which no change to the program can move. A vCPU
// accrues steal only while it has work: an idle (halted) vCPU is not
// waiting to run. So the call's wall time is scaled by the share of the
// vCPUs' runnable time (busy plus stolen, from /proc/stat) that was not
// stolen over the call. That holds however many vCPUs the call keeps busy:
// a single-threaded run (fig5, the 1-LP reference) is delayed by the steal
// of the one vCPU it runs on, which dividing the steal of all vCPUs by their
// count would halve. With no steal, busy time is wall time.
type stopwatch struct {
	start time.Time
	cpu   cpuTicks
}

func startWatch() stopwatch { return stopwatch{time.Now(), readCPUTicks()} }

// wall is the wall-clock time since the start, in seconds.
func (w stopwatch) wall() float64 { return time.Since(w.start).Seconds() }

// busy is the busy time since the start, in seconds.
func (w stopwatch) busy() float64 {
	wall := w.wall()
	now := readCPUTicks()
	runnable, steal := now.runnable-w.cpu.runnable, now.steal-w.cpu.steal
	if runnable <= 0 || steal <= 0 {
		return wall
	}
	return wall * (1 - min(steal/runnable, 1))
}

// cpuTicks is the guest's cumulative CPU time over all vCPUs from the cpu
// line of /proc/stat: runnable is user, nice, system, irq, softirq and steal
// (everything but idle and iowait), steal the time stolen. The unit (USER_HZ
// ticks) cancels in the ratio. Both read 0 where /proc/stat is unavailable,
// which makes busy time wall time.
type cpuTicks struct{ runnable, steal float64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]float64 // user nice system idle iowait irq softirq steal
	for i := range v {
		x, err := strconv.ParseFloat(f[i+1], 64)
		if err != nil {
			return cpuTicks{}
		}
		v[i] = x
	}
	return cpuTicks{runnable: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7]}
}
