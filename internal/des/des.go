// Package des implements the discrete-event simulation kernel underlying
// every simulator in this repository (the OMNeT++ role in the paper).
//
// Network behavior is represented as a series of events in a temporally
// ordered queue. The kernel owns virtual time, a binary-heap event queue with
// deterministic tie-breaking, and counters that the evaluation harness uses
// to report how much work a simulation performed (the paper's speedup claims
// are fundamentally claims about event counts).
//
// Events are closures. Components schedule work with Schedule/At and may
// cancel a pending event through its handle. Cancellation marks the event
// dead, which is O(1) for the dominant cancel pattern — TCP retransmission
// timers that are re-armed on every ACK. Dead events are skipped when they
// reach the top of the heap, and Cancel compacts them out whenever they
// outnumber the live ones, so a far-future dead timer does not ride the queue
// until it expires and right after any Cancel at most half the heap is dead.
package des

import (
	"fmt"
	"math"
	"sync/atomic"

	"approxsim/internal/metrics"
)

// Time is virtual simulation time in nanoseconds since simulation start.
type Time int64

// Common durations, expressed in Time units for direct arithmetic.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, for logs and traces.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// FromSeconds converts floating-point seconds to a virtual Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Event is a handle to a scheduled closure. The zero value is meaningless;
// handles are produced by Kernel.Schedule and Kernel.At.
type Event struct {
	at       Time
	band     uint8
	key      uint64
	seq      uint64
	fn       func()
	canceled bool

	// ctx is an optional caller-supplied value attached by AtCtx. The kernel
	// never interprets it; Snapshot/Restore pass it to the caller's state
	// callbacks so mutable objects captured by the closure (in practice:
	// in-flight packets) can be checkpointed alongside the event.
	ctx any

	// Pooling state (see pool.go). gen counts reincarnations: it is bumped
	// every time the object is recycled, so a holder that recorded Gen() at
	// schedule time can detect that its event fired and the object now
	// belongs to someone else. snapped pins the object out of the pool
	// forever: a KernelState holds it and Restore will write fields back into
	// it. pooled marks objects currently on the free list.
	gen     uint64
	snapped bool
	pooled  bool
}

// Time reports when the event will fire (or would have fired, if canceled).
func (e *Event) Time() Time { return e.at }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Live reports whether the event is still pending: neither fired nor
// canceled. Meaningful only for the event's original incarnation: a holder
// that may outlive the event must compare Gen() first (a recycled-and-reused
// object can be Live again on someone else's behalf).
func (e *Event) Live() bool { return e.fn != nil && !e.pooled }

// Gen returns the event object's pool incarnation. Holders that keep a handle
// past the event's execution (the Time Warp processed log) record Gen at
// schedule time; a later mismatch means the event fired and the object was
// recycled — the handle must not be used for Cancel.
func (e *Event) Gen() uint64 { return e.gen }

// Ctx returns the context value attached by AtCtx (nil otherwise).
func (e *Event) Ctx() any { return e.ctx }

// eventHeap is a binary min-heap ordered by (time, band, key, seq). seq is a
// strictly increasing schedule counter, so two events at the same virtual time
// in the same band fire in the order they were scheduled — the property that
// makes runs reproducible. The band (AtCtxBand) separates event classes whose
// relative schedule order is NOT reproducible across execution strategies:
// the PDES engines schedule cross-LP arrivals in a later band so a message
// ingested early (null-message drains) or late (barrier windows, Time Warp
// re-ingestion) lands at the same position among same-timestamp events either
// way, and all synchronization algorithms commit identical event orders.
//
// The key (AtCtxKeyBand) breaks ties WITHIN a band by caller-chosen content
// instead of schedule order, for event classes where even the schedule order
// within one band is not reproducible: same-timestamp network arrivals from
// two different sender LPs reach the inbox in a racy interleaving, so the
// PDES engines key each arrival by its transmitting device — a value derived
// from simulation content, identical no matter which LP the transmitter lives
// on or when its message was ingested. Plain At/AtCtx schedule with key 0.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].band != h[j].band {
		return h[i].band < h[j].band
	}
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e *Event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old)
	top := old[0]
	old[0] = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	h.siftDown(0)
	return top
}

// heapify restores the heap property over arbitrary contents bottom-up
// (Floyd's method), in O(n).
func (h eventHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// Hook observes kernel scheduler activity from the hot path. Implementations
// live outside this package (internal/obs); the kernel only pays a nil check
// per event when no hook is installed, so tracing is near-free when off.
// OnEvent is invoked by the kernel's own goroutine immediately before each
// live event executes.
type Hook interface {
	OnEvent(at Time, seq uint64)
}

// Kernel is a single-threaded discrete-event scheduler: exactly one goroutine
// may schedule, cancel, and run events. Clock and work counters are published
// with single-writer atomics, so other goroutines (the obs interval sampler,
// a metrics snapshot) may read Now, Pending, Stats, and CollectMetrics while
// the kernel runs; the pdes package builds multi-LP simulations out of one
// Kernel per logical process.
type Kernel struct {
	now    Time
	heap   eventHeap
	seq    uint64
	nexec  uint64 // events executed
	nsched uint64 // events scheduled
	ncanc  uint64 // events canceled
	heapHW int64  // heap depth high-water mark
	npend  int64  // current heap depth, mirrored for concurrent readers
	dead   int    // canceled events still in the heap
	hook   Hook
	run    bool
	stop   bool

	// Event free list (pool.go). Owned by the kernel goroutine like the heap;
	// the counters are mirrored atomically for concurrent metrics readers.
	free    []*Event
	pooling bool
	phit    uint64 // allocations served from the free list
	pmiss   uint64 // allocations that hit the Go allocator
	nfree   int64  // current free-list depth, mirrored for readers
}

// NewKernel returns an empty kernel at virtual time zero, with event pooling
// enabled (see SetPooling).
func NewKernel() *Kernel {
	return &Kernel{heap: make(eventHeap, 0, 1024), pooling: true}
}

// SetHook installs (or, with nil, removes) the scheduler hook. Must be called
// from the kernel's owning goroutine while it is not running events.
func (k *Kernel) SetHook(h Hook) { k.hook = h }

// Now returns the current virtual time. Safe to call from any goroutine.
func (k *Kernel) Now() Time { return Time(atomic.LoadInt64((*int64)(&k.now))) }

// setNow advances the clock visibly to concurrent readers.
func (k *Kernel) setNow(t Time) { atomic.StoreInt64((*int64)(&k.now), int64(t)) }

// syncPending republishes the heap depth after any heap mutation.
func (k *Kernel) syncPending() { atomic.StoreInt64(&k.npend, int64(len(k.heap))) }

// Schedule runs fn after delay virtual time. A negative delay panics: the
// simulated world cannot schedule into its own past.
func (k *Kernel) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %d", delay))
	}
	return k.At(k.now+delay, fn)
}

// At runs fn at absolute virtual time t, which must not be before Now.
func (k *Kernel) At(t Time, fn func()) *Event {
	return k.AtCtx(t, nil, fn)
}

// AtCtx is At with a context value attached to the event. Snapshot/Restore
// hand ctx to the caller's state callbacks, which is how the optimistic PDES
// engine checkpoints the contents of packets captured by pending closures.
func (k *Kernel) AtCtx(t Time, ctx any, fn func()) *Event {
	return k.AtCtxBand(t, 0, ctx, fn)
}

// AtCtxBand is AtCtx with an explicit ordering band: at equal timestamps,
// lower bands fire first and seq breaks ties only within a band. Callers whose
// scheduling MOMENT is not deterministic — cross-LP message ingestion, whose
// timing differs between synchronization algorithms — use a later band so the
// committed event order depends only on simulation content, never on when the
// event object happened to be created. Plain At/AtCtx schedule in band 0.
func (k *Kernel) AtCtxBand(t Time, band uint8, ctx any, fn func()) *Event {
	return k.AtCtxKeyBand(t, band, 0, ctx, fn)
}

// AtCtxKeyBand is AtCtxBand with an explicit intra-band ordering key: at equal
// (timestamp, band), lower keys fire first and seq breaks ties only within a
// key. Callers use it when even the scheduling ORDER within a band is not
// reproducible — cross-LP arrivals from different senders are ingested in a
// racy interleaving — by deriving the key from simulation content (the
// transmitting device), so the committed order of same-timestamp arrivals is
// independent of both the synchronization algorithm and the partitioning.
func (k *Kernel) AtCtxKeyBand(t Time, band uint8, key uint64, ctx any, fn func()) *Event {
	if t < k.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("des: nil event function")
	}
	k.seq++
	e := k.alloc(t, ctx, fn)
	e.band = band
	e.key = key
	k.heap.push(e)
	atomic.AddUint64(&k.nsched, 1)
	k.syncPending()
	if d := int64(len(k.heap)); d > atomic.LoadInt64(&k.heapHW) {
		atomic.StoreInt64(&k.heapHW, d)
	}
	return e
}

// ScheduleCtx is Schedule with a context value attached (see AtCtx).
func (k *Kernel) ScheduleCtx(delay Time, ctx any, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %d", delay))
	}
	return k.AtCtx(k.now+delay, ctx, fn)
}

// Cancel marks a pending event dead. Canceling an already-fired or
// already-canceled event is a no-op; cancel-then-reschedule is the normal
// timer idiom, so this must be forgiving. When dead entries come to outnumber
// live ones, Cancel compacts the heap and recycles the canceled objects (see
// pool.go), so a canceled handle may be reused by a later Schedule exactly
// like a fired one: drop or overwrite it after Cancel.
func (k *Kernel) Cancel(e *Event) {
	// A recycled handle is also a no-op (e.pooled guards the pooldebug build,
	// where pooled events carry a poisoned non-nil fn): per this contract,
	// canceling after the event fired is legal, however late the caller is.
	// What is NOT legal is canceling through a stale handle after the object
	// was reused — release builds cannot detect that (the Gen protocol
	// exists for holders that need to), and pooldebug catches the reuse
	// itself via poisoning.
	if e == nil || e.canceled || e.fn == nil || e.pooled {
		return
	}
	e.canceled = true
	e.fn = nil
	atomic.AddUint64(&k.ncanc, 1)
	k.dead++
	if 2*k.dead > len(k.heap) {
		k.compact()
	}
}

// compact drops every canceled event from the heap in place and recycles it,
// then re-heapifies the survivors. It runs only when dead entries are the
// majority, so it removes at least half the heap and costs amortized O(1) per
// Cancel. Pop order is unchanged: the key (at, band, key, seq) is a total
// order, and every valid heap over the same set of events pops identically.
func (k *Kernel) compact() {
	h := k.heap
	n := 0
	for _, e := range h {
		if e.canceled {
			checkNotPooled(e, "compact")
			k.recycle(e)
			continue
		}
		h[n] = e
		n++
	}
	clear(h[n:]) // the vacated tail must not keep unrecycled (pinned or unpooled) events alive
	k.heap = h[:n]
	k.heap.heapify()
	k.dead = 0
	k.syncPending()
}

// top discards canceled events from the top of the heap and returns the
// earliest live event without removing it, or nil when none is pending. Every
// run loop goes through it, so the dead-entry accounting lives here alone.
func (k *Kernel) top() *Event {
	for len(k.heap) > 0 {
		e := k.heap[0]
		if !e.canceled {
			return e
		}
		k.heap.pop()
		k.syncPending()
		checkNotPooled(e, "pop") // pooldebug: a pooled event in the heap is corruption
		k.dead--
		k.recycle(e)
	}
	return nil
}

// Step executes the single next live event. It returns false when the queue
// is empty (or holds only canceled events).
func (k *Kernel) Step() bool {
	if k.top() == nil {
		return false
	}
	k.fire()
	return true
}

// fire pops and executes the heap's top event, which top has found live.
func (k *Kernel) fire() {
	e := k.heap.pop()
	k.syncPending()
	checkNotPooled(e, "pop") // pooldebug: a pooled event in the heap is corruption
	k.setNow(e.at)
	fn := e.fn
	e.fn = nil
	at, seq := e.at, e.seq
	atomic.AddUint64(&k.nexec, 1)
	// Recycle before running fn: anything fn schedules may reuse the object
	// immediately, which is what makes the steady-state hot path
	// allocation-free. fn was extracted first, and handles kept past this
	// point are covered by the Gen() protocol (see pool.go).
	k.recycle(e)
	if k.hook != nil {
		k.hook.OnEvent(at, seq)
	}
	fn()
}

// Run executes events in timestamp order until the queue drains, until the
// next event would fire after `until`, or until Stop is called. On return,
// Now is min(until, time of last executed event); events beyond `until`
// remain queued so the caller can resume with a later horizon.
func (k *Kernel) Run(until Time) {
	k.run = true
	k.stop = false
	defer func() { k.run = false }()
	for !k.stop {
		if e := k.top(); e == nil || e.at > until {
			break
		}
		k.fire()
	}
	// Advance idle time to the horizon so repeated Run calls observe
	// monotonic progress — except for the drain-everything horizon used by
	// RunAll, where the end of the last event is the natural finish time.
	if k.now < until && until != MaxTime && !k.stop {
		k.setNow(until)
	}
}

// RunBefore executes events strictly before `until` and then advances Now to
// `until`; events stamped AT `until` (or later) stay queued. This is the
// window primitive of the conservative PDES engines: an earliest-input-time
// promise of T only guarantees no FUTURE message earlier than T — a message
// stamped exactly T may still be in flight — so a window may execute only
// events strictly below its horizon. Deferring the boundary events until the
// horizon has strictly passed them guarantees every same-timestamp arrival is
// already in the heap, where the (band, key) order makes their committed
// order independent of ingestion timing.
func (k *Kernel) RunBefore(until Time) {
	k.run = true
	k.stop = false
	defer func() { k.run = false }()
	for !k.stop {
		if e := k.top(); e == nil || e.at >= until {
			break
		}
		k.fire()
	}
	if k.now < until && !k.stop {
		k.setNow(until)
	}
}

// RunAll executes events until the queue is fully drained.
func (k *Kernel) RunAll() { k.Run(MaxTime) }

// Stop makes Run return after the currently executing event completes.
// It may be called from inside an event.
func (k *Kernel) Stop() { k.stop = true }

// Pending returns the number of events in the heap, including canceled ones
// still awaiting removal. Cancel compacts the heap whenever dead entries
// become the majority, so right after a Cancel at most half of Pending is
// dead. Safe to call from any goroutine.
func (k *Kernel) Pending() int { return int(atomic.LoadInt64(&k.npend)) }

// NextEventTime returns the time of the earliest live pending event and true,
// or (0, false) if none is pending. The PDES engine uses this to compute
// earliest-output-time guarantees.
func (k *Kernel) NextEventTime() (Time, bool) {
	e := k.top()
	if e == nil {
		return 0, false
	}
	return e.at, true
}

// Stats reports scheduler work counters since kernel creation.
type Stats struct {
	Executed      uint64 // events run
	Scheduled     uint64 // events ever scheduled
	Canceled      uint64 // events canceled before firing
	HeapHighWater int    // deepest the event heap has ever been
	PoolHits      uint64 // event allocations served from the free list
	PoolMisses    uint64 // event allocations that hit the Go allocator
	PoolFree      int    // events currently parked on the free list
}

// Stats returns a snapshot of the kernel's work counters. Safe to call from
// any goroutine.
func (k *Kernel) Stats() Stats {
	return Stats{
		Executed:      atomic.LoadUint64(&k.nexec),
		Scheduled:     atomic.LoadUint64(&k.nsched),
		Canceled:      atomic.LoadUint64(&k.ncanc),
		HeapHighWater: int(atomic.LoadInt64(&k.heapHW)),
		PoolHits:      atomic.LoadUint64(&k.phit),
		PoolMisses:    atomic.LoadUint64(&k.pmiss),
		PoolFree:      int(atomic.LoadInt64(&k.nfree)),
	}
}

// CollectMetrics implements metrics.Collector. Registering several kernels
// (one per PDES LP) under one group sums the counters and takes the maximum
// of the gauges. Safe to call while the kernel runs.
func (k *Kernel) CollectMetrics(e *metrics.Emitter) {
	e.Counter("events_executed", atomic.LoadUint64(&k.nexec))
	e.Counter("events_scheduled", atomic.LoadUint64(&k.nsched))
	e.Counter("events_canceled", atomic.LoadUint64(&k.ncanc))
	e.Counter("pool_hits", atomic.LoadUint64(&k.phit))
	e.Counter("pool_misses", atomic.LoadUint64(&k.pmiss))
	e.Gauge("pool_free", atomic.LoadInt64(&k.nfree))
	e.Gauge("heap_high_water", atomic.LoadInt64(&k.heapHW))
	e.Gauge("pending_events", atomic.LoadInt64(&k.npend))
	e.Gauge("virtual_time_ns", int64(k.Now()))
}
