package des

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{5, "5ns"},
		{1500, "1.500us"},
		{2_500_000, "2.500ms"},
		{3 * Second, "3.000000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 0.001, 1, 12.5} {
		got := FromSeconds(s).Seconds()
		if diff := got - s; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("FromSeconds(%v).Seconds() = %v", s, got)
		}
	}
}

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(30, func() { order = append(order, 3) })
	k.Schedule(10, func() { order = append(order, 1) })
	k.Schedule(20, func() { order = append(order, 2) })
	k.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if k.Now() != 30 {
		t.Errorf("final time = %v, want 30", k.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	// Events at the same timestamp must fire in schedule order.
	k := NewKernel()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(5, func() { order = append(order, i) })
	}
	k.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of schedule order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.Schedule(10, func() {
		fired = append(fired, k.Now())
		k.Schedule(5, func() { fired = append(fired, k.Now()) })
		// Same-time event scheduled from within an event still fires.
		k.Schedule(0, func() { fired = append(fired, k.Now()) })
	})
	k.RunAll()
	want := []Time{10, 10, 15}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	ran := false
	e := k.Schedule(10, func() { ran = true })
	k.Cancel(e)
	k.RunAll()
	if ran {
		t.Error("canceled event ran")
	}
	if !e.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	// Double cancel and nil cancel are no-ops.
	k.Cancel(e)
	k.Cancel(nil)
}

func TestCancelThenReschedule(t *testing.T) {
	k := NewKernel()
	count := 0
	var timer *Event
	arm := func(d Time) {
		if timer != nil {
			k.Cancel(timer)
		}
		timer = k.Schedule(d, func() { count++ })
	}
	arm(10)
	arm(20)
	arm(30)
	k.RunAll()
	if count != 1 {
		t.Errorf("re-armed timer fired %d times, want 1", count)
	}
	if k.Now() != 30 {
		t.Errorf("fired at %v, want 30", k.Now())
	}
}

func TestRunUntilHorizon(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.Run(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v before horizon 25", fired)
	}
	if k.Now() != 25 {
		t.Errorf("Now = %v after Run(25)", k.Now())
	}
	// Resume picks up the remaining events.
	k.Run(100)
	if len(fired) != 4 {
		t.Errorf("after resume fired %v", fired)
	}
}

func TestRunAdvancesToHorizonWhenIdle(t *testing.T) {
	k := NewKernel()
	k.Run(1000)
	if k.Now() != 1000 {
		t.Errorf("idle Run(1000) left Now = %v", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.RunAll()
	if count != 3 {
		t.Errorf("executed %d events after Stop at 3", count)
	}
	if k.Pending() != 7 {
		t.Errorf("pending = %d, want 7", k.Pending())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	NewKernel().Schedule(-1, func() {})
}

func TestAtInPastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At(past) did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.RunAll()
}

func TestNilEventFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil fn did not panic")
		}
	}()
	NewKernel().Schedule(1, nil)
}

func TestNextEventTime(t *testing.T) {
	k := NewKernel()
	if _, ok := k.NextEventTime(); ok {
		t.Error("empty kernel reported a next event")
	}
	e1 := k.Schedule(50, func() {})
	k.Schedule(70, func() {})
	if tm, ok := k.NextEventTime(); !ok || tm != 50 {
		t.Errorf("NextEventTime = %v,%v want 50,true", tm, ok)
	}
	// Canceling the head must expose the next live event.
	k.Cancel(e1)
	if tm, ok := k.NextEventTime(); !ok || tm != 70 {
		t.Errorf("after cancel NextEventTime = %v,%v want 70,true", tm, ok)
	}
}

func TestStats(t *testing.T) {
	k := NewKernel()
	e := k.Schedule(1, func() {})
	k.Schedule(2, func() {})
	k.Cancel(e)
	k.RunAll()
	s := k.Stats()
	if s.Scheduled != 2 || s.Executed != 1 || s.Canceled != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	k := NewKernel()
	if k.Step() {
		t.Error("Step on empty kernel returned true")
	}
	e := k.Schedule(5, func() {})
	k.Cancel(e)
	if k.Step() {
		t.Error("Step over only-canceled events returned true")
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and every scheduled (uncanceled) event fires exactly once.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 500 {
			delays = delays[:500]
		}
		k := NewKernel()
		var fired []Time
		for _, d := range delays {
			k.Schedule(Time(d), func() { fired = append(fired, k.Now()) })
		}
		k.RunAll()
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		// The multiset of fire times matches the multiset of delays.
		want := make([]int, len(delays))
		for i, d := range delays {
			want[i] = int(d)
		}
		got := make([]int, len(fired))
		for i, tm := range fired {
			got[i] = int(tm)
		}
		sort.Ints(want)
		sort.Ints(got)
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: heap behaves identically to a reference sort under random
// interleavings of schedule at increasing current times.
func TestPropertyCancellationConsistency(t *testing.T) {
	f := func(delays []uint8, cancelMask []bool) bool {
		k := NewKernel()
		fired := 0
		events := make([]*Event, 0, len(delays))
		for _, d := range delays {
			events = append(events, k.Schedule(Time(d), func() { fired++ }))
		}
		want := len(delays)
		for i, e := range events {
			if i < len(cancelMask) && cancelMask[i] {
				k.Cancel(e)
				want--
			}
		}
		k.RunAll()
		return fired == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleExecute(b *testing.B) {
	k := NewKernel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Schedule(Time(i%1000), func() {})
		if k.Pending() > 1024 {
			for k.Step() && k.Pending() > 512 {
			}
		}
	}
	k.RunAll()
}

func BenchmarkTimerChurn(b *testing.B) {
	// The TCP pattern: arm, cancel, re-arm.
	k := NewKernel()
	b.ReportAllocs()
	var timer *Event
	for i := 0; i < b.N; i++ {
		if timer != nil {
			k.Cancel(timer)
		}
		timer = k.Schedule(1000, func() {})
		if i%64 == 0 {
			k.Run(k.Now() + 10)
		}
	}
	b.ReportMetric(float64(k.Stats().HeapHighWater), "heap_high_water")
}
