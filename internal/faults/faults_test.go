package faults

import (
	"fmt"
	"strings"
	"testing"

	"approxsim/internal/des"
	"approxsim/internal/packet"
)

// Device IDs of a tiny fabric for the grammar tests.
const (
	tor0   packet.NodeID = 1
	tor1   packet.NodeID = 2
	spine0 packet.NodeID = 10
	spine1 packet.NodeID = 11
)

func resolve(name string) (packet.NodeID, error) {
	switch name {
	case "tor0":
		return tor0, nil
	case "tor1":
		return tor1, nil
	case "spine0":
		return spine0, nil
	case "spine1":
		return spine1, nil
	}
	return 0, fmt.Errorf("unknown device %q", name)
}

func TestParseDurationUnits(t *testing.T) {
	cases := []struct {
		in   string
		want des.Time
	}{
		{"250ns", 250},
		{"250", 250}, // bare nanoseconds
		{"0", 0},
		{"500us", 500 * des.Microsecond},
		{"500µs", 500 * des.Microsecond},
		{"1.5ms", 1500 * des.Microsecond},
		{"2s", 2 * des.Second},
		{" 3ms ", 3 * des.Millisecond},
		{"1e3us", des.Millisecond},
		{"9e18ns", 9e18},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseDuration(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestParseDurationRejections covers malformed input and the values that
// used to convert to -2^63 ns: infinities, NaN, and finite values past the
// int64 range.
func TestParseDurationRejections(t *testing.T) {
	for _, in := range []string{
		"", "ms", "abc", "1.5 ms", "1h", "-1ms", "-0.5",
		"inf", "+Inf", "infs", "NaN", "nanms",
		"1e13s", "1e19", "9.3e18ns", "1e16ms",
	} {
		if d, err := ParseDuration(in); err == nil {
			t.Errorf("ParseDuration(%q) = %d, want an error", in, d)
		}
	}
}

func TestParseGrammar(t *testing.T) {
	s, err := Parse(" link:tor0-spine1@1ms+500us,detect=50us,jitter=10us ;; switch:spine0@2ms ;", 9, resolve)
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: LinkFault, A: tor0, B: spine1, At: des.Millisecond, Recover: 1500 * des.Microsecond,
			Detect: 50 * des.Microsecond, DetectJitter: 10 * des.Microsecond},
		{Kind: SwitchFault, A: spine0, At: 2 * des.Millisecond},
	}
	if s.Seed != 9 {
		t.Errorf("seed %d, want 9", s.Seed)
	}
	if len(s.Faults) != len(want) {
		t.Fatalf("parsed %d faults, want %d: %+v", len(s.Faults), len(want), s.Faults)
	}
	for i := range want {
		if s.Faults[i] != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, s.Faults[i], want[i])
		}
	}
	empty, err := Parse("", 1, resolve)
	if err != nil || !empty.Empty() {
		t.Fatalf("empty spec: %+v, %v", empty, err)
	}
}

func TestParseRejections(t *testing.T) {
	cases := []struct{ spec, substr string }{
		{"tor0-spine0@1ms", "missing kind prefix"},
		{"router:spine0@1ms", "unknown kind"},
		{"switch:spine0", "missing @failure-time"},
		{"link:tor0@1ms", "wants the form a-b"},
		{"link:tor0-spine9@1ms", "unknown device"},
		{"switch:leaf3@1ms", "unknown device"},
		{"switch:spine0@soon", "failure time"},
		{"switch:spine0@1ms+forever", "outage duration"},
		{"switch:spine0@inf", "failure time"},
		{"switch:spine0@1ms+NaN", "outage duration"},
		{"switch:spine0@1ms,detect", "wants key=value"},
		{"switch:spine0@1ms,detect=fast", "option detect"},
		{"switch:spine0@1ms,jitter=1e13s", "option jitter"},
		{"switch:spine0@1ms,delay=5us", "unknown option"},
		{"link:tor0-tor0@1ms", "self-link"},
		{"switch:spine0@1ms+0", "not after failure"},
		{"switch:spine0@9e18ns+9e18ns", "outage ends past"},
		{"switch:spine0@9e18ns,detect=9e18ns", "detected edges"},
		{"switch:spine0@1ms+9.2e18ns,detect=1e17ns", "detected edges"},
	}
	for _, c := range cases {
		_, err := Parse(c.spec, 1, resolve)
		if err == nil {
			t.Errorf("Parse(%q) accepted", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("Parse(%q) error %q, want it to mention %q", c.spec, err, c.substr)
		}
	}
}

// TestOutageWindowBoundaries: an outage covers [at, at+dur), on either
// endpoint order for links, and a permanent one never ends.
func TestOutageWindowBoundaries(t *testing.T) {
	const at, dur = 1000, 500
	s := &Schedule{Faults: []Fault{
		{Kind: LinkFault, A: tor0, B: spine0, At: at, Recover: at + dur},
		{Kind: SwitchFault, A: spine1, At: at, Recover: at + dur},
		{Kind: SwitchFault, A: tor1, At: at}, // permanent
	}}
	for _, c := range []struct {
		t    des.Time
		down bool
	}{{0, false}, {at - 1, false}, {at, true}, {at + dur - 1, true}, {at + dur, false}} {
		if got := s.LinkDown(tor0, spine0, c.t); got != c.down {
			t.Errorf("LinkDown(tor0, spine0, %d) = %v, want %v", c.t, got, c.down)
		}
		if got := s.LinkDown(spine0, tor0, c.t); got != c.down {
			t.Errorf("LinkDown(spine0, tor0, %d) = %v, want %v", c.t, got, c.down)
		}
		if got := s.SwitchDown(spine1, c.t); got != c.down {
			t.Errorf("SwitchDown(spine1, %d) = %v, want %v", c.t, got, c.down)
		}
		if got := s.PathDown(tor0, spine1, c.t); got != c.down {
			t.Errorf("PathDown(tor0, spine1, %d) = %v, want %v", c.t, got, c.down)
		}
	}
	if s.LinkDown(tor0, spine1, at) || s.SwitchDown(spine0, at) {
		t.Error("a fault leaked onto an element it does not name")
	}
	if s.SwitchDown(tor1, at-1) || !s.SwitchDown(tor1, at) || !s.SwitchDown(tor1, des.MaxTime-1) {
		t.Error("permanent switch fault window wrong")
	}
	var none *Schedule
	if none.LinkDown(tor0, spine0, at) || none.SwitchDown(spine1, at) || !none.Empty() {
		t.Error("nil schedule reports a fault")
	}
}

// TestViewedWindowDetectOffset: a viewer sees the outage shifted by the
// detection delay on both edges, and jitter extends that delay by a
// deterministic per-viewer amount in [0, jitter].
func TestViewedWindowDetectOffset(t *testing.T) {
	const at, dur, detect = 1000, 500, 40
	s := &Schedule{Faults: []Fault{
		{Kind: LinkFault, A: tor0, B: spine0, At: at, Recover: at + dur, Detect: detect},
		{Kind: SwitchFault, A: spine1, At: at, Recover: at + dur, Detect: detect},
	}}
	for _, c := range []struct {
		t    des.Time
		down bool
	}{
		{at, false}, {at + detect - 1, false}, {at + detect, true},
		{at + dur + detect - 1, true}, {at + dur + detect, false},
	} {
		if got := s.ViewedLinkDown(tor1, spine0, tor0, c.t); got != c.down {
			t.Errorf("ViewedLinkDown at %d = %v, want %v", c.t, got, c.down)
		}
		if got := s.ViewedSwitchDown(tor1, spine1, c.t); got != c.down {
			t.Errorf("ViewedSwitchDown at %d = %v, want %v", c.t, got, c.down)
		}
	}

	const jitter = 25
	js := &Schedule{Seed: 5, Faults: []Fault{
		{Kind: SwitchFault, A: spine0, At: at, Recover: at + dur, Detect: detect, DetectJitter: jitter},
	}}
	seen := map[des.Time]bool{}
	for v := packet.NodeID(0); v < 32; v++ {
		j := js.jitter(v, 0)
		if j < 0 || j > jitter {
			t.Fatalf("viewer %d jitter %d outside [0, %d]", v, j, jitter)
		}
		if j != js.jitter(v, 0) {
			t.Fatalf("viewer %d jitter not deterministic", v)
		}
		seen[j] = true
		d := des.Time(detect) + j
		if js.ViewedSwitchDown(v, spine0, at+d-1) || !js.ViewedSwitchDown(v, spine0, at+d) ||
			!js.ViewedSwitchDown(v, spine0, at+dur+d-1) || js.ViewedSwitchDown(v, spine0, at+dur+d) {
			t.Errorf("viewer %d (jitter %d): viewed window is not [at+d, at+dur+d)", v, j)
		}
	}
	if len(seen) < 2 {
		t.Error("jitter did not stagger viewers")
	}
}
