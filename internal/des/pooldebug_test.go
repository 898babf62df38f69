//go:build pooldebug

package des

import (
	"strings"
	"testing"
)

// These tests exist only in the pooldebug build: they assert that the
// poisoning machinery actually turns stale-handle abuse into loud panics.
// Release-build behavior (silent no-ops) is covered by the untagged suite.

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("expected panic containing %q, got %v", substr, r)
		}
	}()
	f()
}

// A fired event's object is poisoned on recycle: implausible timestamp, and a
// closure that panics if the heap somehow runs it again.
func TestPoolDebugPoisonsRecycledEvents(t *testing.T) {
	k := NewKernel()
	e := k.Schedule(10, func() {})
	k.RunAll()
	if !e.pooled {
		t.Fatal("fired event was not recycled")
	}
	if e.at != poisonTime {
		t.Fatalf("recycled event timestamp = %d, want poison %d", e.at, poisonTime)
	}
	mustPanic(t, "recycled event fired", e.fn)
}

// Cancel through a recycled handle stays a no-op even in the pooldebug build:
// the contract says canceling after the event fired is always legal, however
// late. Only *use* of the recycled object (pop, snapshot, fire) is hostile.
func TestPoolDebugStaleCancelIsNoOp(t *testing.T) {
	k := NewKernel()
	e := k.Schedule(10, func() {})
	k.RunAll()
	k.Cancel(e) // must not panic, must not mark the pooled object canceled
	fired := false
	e2 := k.Schedule(5, func() { fired = true })
	if e2 != e {
		t.Fatal("free list did not reuse the recycled object")
	}
	k.RunAll()
	if !fired {
		t.Fatal("reincarnated event did not fire — stale Cancel leaked into the reuse")
	}
}

// checkNotPooled is the assertion kernel entry points lean on; make sure it
// actually fires for a pooled object and stays quiet otherwise.
func TestPoolDebugCheckNotPooled(t *testing.T) {
	k := NewKernel()
	e := k.Schedule(10, func() {})
	checkNotPooled(e, "test") // live event: fine
	k.RunAll()
	mustPanic(t, "recycled event", func() { checkNotPooled(e, "test") })
	checkNotPooled(nil, "test") // nil handle: fine
}

// A stale handle that re-enters the heap is the bug class poisoning exists
// for: the poisoned timestamp makes AtCtxBand's past-schedule check reject the
// replayed time, and a poisoned fn fires loudly. Simulate the closest legal
// approximation — manually pushing the recycled object back into the heap —
// and verify the pop-side assertion catches it.
func TestPoolDebugPopAssertsOnPooledEvent(t *testing.T) {
	k := NewKernel()
	e := k.Schedule(10, func() {})
	k.RunAll()
	k.heap.push(e) // corruption: a pooled object reachable from the heap
	k.syncPending()
	mustPanic(t, "pop on a recycled event", func() { k.Step() })
}

// Compaction recycles canceled events, so a handle kept past Cancel can point
// at a poisoned object. Cancel through it must stay a no-op (the poisoned fn
// is non-nil, so only the pooled check keeps it out), and Canceled must keep
// answering true until the object is reused.
func TestPoolDebugCompactedCancelIsNoOp(t *testing.T) {
	k := NewKernel()
	k.Schedule(100, func() {})
	a := k.Schedule(10, func() {})
	b := k.Schedule(20, func() {})
	k.Cancel(a)
	k.Cancel(b) // 2 dead of 3: compacts
	for _, e := range []*Event{a, b} {
		if !e.pooled || e.at != poisonTime {
			t.Fatal("compacted event was not recycled and poisoned")
		}
		k.Cancel(e) // must not panic or count
		if !e.Canceled() {
			t.Fatal("compacted handle lost its Canceled answer")
		}
	}
	if c := k.Stats().Canceled; c != 2 {
		t.Fatalf("Cancel through compacted handles counted: %d cancels", c)
	}
	fired := false
	e := k.Schedule(5, func() { fired = true })
	if e != a && e != b {
		t.Fatal("free list did not reuse a compacted object")
	}
	if e.Canceled() {
		t.Fatal("reused object still reports Canceled")
	}
	k.RunAll()
	if !fired {
		t.Fatal("reincarnated event did not fire — stale Cancel leaked into the reuse")
	}
}
