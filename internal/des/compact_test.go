package des

import (
	"sort"
	"testing"

	"approxsim/internal/rng"
)

// refEvent is the reference model's view of one scheduled event: its full
// heap key and the identifier its closure records when it fires.
type refEvent struct {
	at   Time
	band uint8
	key  uint64
	seq  uint64
	id   int
}

func refLess(a, b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.band != b.band {
		return a.band < b.band
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// deadInHeap counts the canceled entries actually in the heap, the quantity
// the kernel's dead counter tracks.
func deadInHeap(k *Kernel) int {
	n := 0
	for _, e := range k.heap {
		if e.canceled {
			n++
		}
	}
	return n
}

// checkHeap asserts the heap property and that the dead counter matches the
// heap's contents.
func checkHeap(t *testing.T, k *Kernel) {
	t.Helper()
	for i := 1; i < len(k.heap); i++ {
		if k.heap.less(i, (i-1)/2) {
			t.Fatalf("heap property violated at index %d", i)
		}
	}
	if got := deadInHeap(k); got != k.dead {
		t.Fatalf("dead counter %d, heap holds %d canceled events", k.dead, got)
	}
}

// TestCompactionPreservesFiringOrder drives random schedule/cancel
// interleavings whose cancel rate keeps compaction running, with timestamps,
// bands and keys drawn from tiny ranges so most events tie on (at, band, key)
// and the seq tie-break decides. The kernel must fire exactly the events a
// sorted reference fires, in the same order.
func TestCompactionPreservesFiringOrder(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		k := NewKernel()
		var fired, want []int
		handles := map[int]*Event{}
		pending := map[int]refEvent{}
		var seq uint64
		compactions := 0
		next := 0
		for round := 0; round < 40; round++ {
			for i := 0; i < 30+r.Intn(30); i++ {
				id := next
				next++
				ev := refEvent{
					at:   k.Now() + Time(r.Intn(4)),
					band: uint8(r.Intn(2)),
					key:  uint64(r.Intn(3)),
					id:   id,
				}
				seq++
				ev.seq = seq
				handles[id] = k.AtCtxKeyBand(ev.at, ev.band, ev.key, nil, func() { fired = append(fired, id) })
				pending[id] = ev
			}
			// Cancel most pending events, in random order, so dead entries
			// become the majority and Cancel compacts.
			ids := make([]int, 0, len(pending))
			for id := range pending {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			for _, id := range ids {
				if r.Float64() < 0.7 {
					before := k.Pending()
					k.Cancel(handles[id])
					if k.Pending() < before {
						compactions++
					}
					delete(pending, id)
					delete(handles, id)
				}
			}
			checkHeap(t, k)
			// Run a short horizon; the reference fires everything at or
			// before it in key order.
			h := k.Now() + Time(r.Intn(3))
			var due []refEvent
			for id, ev := range pending {
				if ev.at <= h {
					due = append(due, ev)
					delete(pending, id)
					delete(handles, id)
				}
			}
			sort.Slice(due, func(i, j int) bool { return refLess(due[i], due[j]) })
			for _, ev := range due {
				want = append(want, ev.id)
			}
			k.Run(h)
			checkHeap(t, k)
		}
		k.RunAll()
		var rest []refEvent
		for _, ev := range pending {
			rest = append(rest, ev)
		}
		sort.Slice(rest, func(i, j int) bool { return refLess(rest[i], rest[j]) })
		for _, ev := range rest {
			want = append(want, ev.id)
		}
		if compactions == 0 {
			t.Fatalf("seed %d: no Cancel compacted the heap; the test lost its point", seed)
		}
		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference %d", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: firing %d is event %d, reference says %d", seed, i, fired[i], want[i])
			}
		}
	}
}

// TestRTOChurnBoundsHeap is the TCP retransmission-timer pattern at scale:
// many connections each hold a far-future timer, and a fast tick cancels and
// re-arms one of them. Without compaction every re-arm leaves a dead timer
// riding the heap for a full RTO; with it the heap stays within twice its
// live population while the cancel count grows without bound.
func TestRTOChurnBoundsHeap(t *testing.T) {
	const (
		conns = 64
		rto   = Second
		tick  = Microsecond
		ticks = 50_000
	)
	k := NewKernel()
	r := rng.New(3)
	timers := make([]*Event, conns)
	noop := func() {}
	for i := range timers {
		timers[i] = k.Schedule(rto, noop)
	}
	n := 0
	var step func()
	step = func() {
		i := r.Intn(conns)
		k.Cancel(timers[i])
		timers[i] = k.Schedule(rto, noop)
		n++
		if n < ticks {
			k.Schedule(tick, step)
		}
		live := conns + 1 // every timer, plus the next tick
		if p := k.Pending(); p > 2*live+1 {
			t.Fatalf("tick %d: %d events pending for %d live", n, p, live)
		}
	}
	k.Schedule(tick, step)
	k.Run(ticks * tick)
	st := k.Stats()
	if st.Canceled != ticks {
		t.Fatalf("canceled %d timers, want %d", st.Canceled, ticks)
	}
	if st.HeapHighWater > 2*(conns+1)+1 {
		t.Fatalf("heap high-water %d for %d live events", st.HeapHighWater, conns+1)
	}
	if st.Executed != ticks {
		t.Fatalf("executed %d events, want the %d ticks only", st.Executed, ticks)
	}
	checkHeap(t, k)
}

// TestCompactionAcrossSnapshotRestore takes a checkpoint with canceled events
// in the heap, compacts through a cancel storm, and rolls back: the replay
// must fire what the first pass fired, a second storm after the Restore must
// compact correctly, and the dead counter must match the heap throughout.
func TestCompactionAcrossSnapshotRestore(t *testing.T) {
	k := NewKernel()
	var log []int
	var handles []*Event
	for i := 0; i < 200; i++ {
		i := i
		handles = append(handles, k.At(Time(10+i%50), func() { log = append(log, i) }))
	}
	// A few canceled events ride into the checkpoint (short of compaction).
	for i := 0; i < 200; i += 10 {
		k.Cancel(handles[i])
	}
	k.Run(5)
	checkHeap(t, k)
	deadAtSnap := k.dead
	if deadAtSnap == 0 {
		t.Fatal("checkpoint holds no canceled events")
	}
	st := k.Snapshot(nil)

	storm := func() {
		t.Helper()
		before := k.Pending()
		for i := 1; i < 200; i += 10 {
			for j := i; j < i+8; j++ {
				k.Cancel(handles[j])
			}
		}
		if k.Pending() >= before {
			t.Fatal("cancel storm did not compact the heap")
		}
		checkHeap(t, k)
	}
	storm()
	k.RunAll()
	first := append([]int(nil), log...)
	if len(first) == 0 {
		t.Fatal("nothing survived the storm")
	}

	k.Restore(st, nil)
	log = nil
	if k.dead != deadAtSnap {
		t.Fatalf("Restore recounted %d dead events, checkpoint had %d", k.dead, deadAtSnap)
	}
	checkHeap(t, k)
	storm()
	k.RunAll()
	if len(log) != len(first) {
		t.Fatalf("replay fired %d events, first pass %d", len(log), len(first))
	}
	for i := range first {
		if log[i] != first[i] {
			t.Fatalf("replay firing %d is event %d, first pass %d", i, log[i], first[i])
		}
	}

	// Without the storm the checkpoint fires every event it did not hold
	// canceled, in timestamp order.
	k.Restore(st, nil)
	log = nil
	k.RunAll()
	if want := 200 - 200/10; len(log) != want {
		t.Fatalf("storm-free replay fired %d events, want %d", len(log), want)
	}
	for i := 1; i < len(log); i++ {
		if 10+log[i]%50 < 10+log[i-1]%50 {
			t.Fatalf("storm-free replay out of order at %d", i)
		}
	}
}

// TestCompactionRecyclesCanceledEvents pins what compaction does to canceled
// handles: the objects go back to the free list, a further Cancel through one
// is a no-op, Canceled keeps answering true until the object is reincarnated,
// and the reincarnation is a fresh live event.
func TestCompactionRecyclesCanceledEvents(t *testing.T) {
	k := NewKernel()
	keep := k.At(100, func() {})
	a := k.At(50, func() { t.Fatal("canceled event fired") })
	b := k.At(70, func() { t.Fatal("canceled event fired") })
	genA, genB := a.Gen(), b.Gen()
	k.Cancel(a) // 1 dead of 3: stays in the heap
	if k.Pending() != 3 || a.pooled {
		t.Fatal("a lone canceled event was compacted")
	}
	k.Cancel(b) // 2 dead of 3: compacts
	if k.Pending() != 1 {
		t.Fatalf("pending %d after compaction, want 1", k.Pending())
	}
	if !a.pooled || !b.pooled || a.Gen() == genA || b.Gen() == genB {
		t.Fatal("compaction did not recycle the canceled events")
	}
	if !a.Canceled() || !b.Canceled() {
		t.Fatal("compacted handle no longer reports Canceled")
	}
	k.Cancel(a)
	k.Cancel(b)
	if c := k.Stats().Canceled; c != 2 {
		t.Fatalf("Cancel through a compacted handle counted: %d cancels", c)
	}
	fired := false
	e := k.At(60, func() { fired = true })
	other := a
	switch e {
	case a:
		other = b
	case b:
	default:
		t.Fatal("free list did not reuse a compacted object")
	}
	if e.Canceled() || !e.Live() {
		t.Fatal("reincarnated event is not live")
	}
	if !other.Canceled() {
		t.Fatal("the still-pooled handle lost its Canceled answer")
	}
	k.RunAll()
	if !fired || !keep.pooled {
		t.Fatal("events did not run after compaction")
	}
}
