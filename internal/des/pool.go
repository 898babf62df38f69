package des

import "sync/atomic"

// Free-list event pool.
//
// The hot path of a packet-level simulation is event churn: every packet at
// every hop schedules (and frees) a handful of Event objects, so naive
// per-event allocation makes the garbage collector a first-order cost — the
// paper's Fig. 1 slowness restated as allocator pressure. The kernel therefore
// recycles Event structs through a per-kernel LIFO free list. A plain slice —
// not sync.Pool — keeps recycling deterministic (same workload, same object
// reuse order), invisible to the race detector (the list is owned by the
// kernel goroutine like the heap itself), and immune to GC-triggered drains.
//
// Ownership rules (see DESIGN.md "Event ownership under pooling"):
//
//   - The kernel owns every event on the heap. Once an event has fired, or a
//     canceled event has been popped or compacted out of the heap (Cancel
//     compacts when dead entries outnumber live ones), its object may be
//     recycled and reused by a later Schedule/At call with a bumped
//     generation counter.
//   - A handle returned by Schedule is valid for Cancel until the event fires
//     or is canceled; the timer idiom (cancel-then-rearm, nil the handle when
//     it fires) is safe because Cancel on a recycled event is a no-op (fn is
//     nil while pooled, and pooled objects are skipped explicitly under
//     -tags pooldebug, where they carry a poisoned fn).
//   - Holders that must detect reuse (the Time Warp processed log) record
//     Gen() at schedule time and treat a mismatch as "the original fired".
//   - Events captured by a Snapshot are pinned: Restore writes fields back
//     into the same objects, so recycling them would corrupt the checkpoint.
//     Snapshot marks every pending event `snapped`, and recycle refuses
//     snapped events forever (they fall back to the garbage collector — a
//     pool-miss-rate cost paid only by optimistic PDES runs).

// alloc returns an event initialized for scheduling, reusing a pooled object
// when one is available. Counters are published atomically for mid-run
// metrics snapshots.
func (k *Kernel) alloc(t Time, ctx any, fn func()) *Event {
	if n := len(k.free); k.pooling && n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		atomic.StoreInt64(&k.nfree, int64(n-1))
		atomic.AddUint64(&k.phit, 1)
		e.at, e.seq, e.fn, e.ctx = t, k.seq, fn, ctx
		e.canceled, e.pooled = false, false
		return e
	}
	atomic.AddUint64(&k.pmiss, 1)
	return &Event{at: t, seq: k.seq, fn: fn, ctx: ctx}
}

// recycle returns an event that has left the heap (fired, or canceled and
// then popped or compacted out) to the free list. Snapshot-pinned events are never recycled: a
// Restore must find them intact. The generation counter is bumped so stale
// handles (Gen recorded at schedule time) observably mismatch, and under
// -tags pooldebug the object is poisoned so any use blows up loudly.
func (k *Kernel) recycle(e *Event) {
	if !k.pooling || e.snapped {
		return
	}
	e.gen++
	e.fn, e.ctx = nil, nil
	// canceled is left as-is (alloc resets it on reuse): a handle held past a
	// cancellation keeps answering Canceled() truthfully until the object is
	// actually reincarnated.
	e.pooled = true
	poisonEvent(e)
	k.free = append(k.free, e)
	atomic.StoreInt64(&k.nfree, int64(len(k.free)))
}

// SetPooling enables or disables event recycling (enabled by default).
// Disabling mid-run is safe — already pooled objects are simply never reused
// again — but the switch must be flipped from the kernel's owning goroutine.
func (k *Kernel) SetPooling(on bool) { k.pooling = on }

// Pooling reports whether event recycling is enabled.
func (k *Kernel) Pooling() bool { return k.pooling }
