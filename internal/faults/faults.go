// Package faults models data-center failure scenarios — link flaps, switch
// failures, detection delays, recovery windows — as a schedule declared up
// front, exactly the way workloads are.
//
// The central design decision is that fault state is a PURE FUNCTION of
// virtual time: "is link a-b down at time T", "does switch V believe spine S
// is dead at time T" are answered by scanning the (small, immutable) schedule,
// never by consulting mutable routing state. That one property buys the
// headline guarantee for free: every sync algorithm — sequential, null
// message, barrier, Time Warp — evaluates fault state at the same event
// timestamps and therefore sees identical answers, and an optimistic rollback
// that re-executes an event re-evaluates the same pure function and gets the
// same result. There is nothing to checkpoint and nothing to roll back.
//
// Reconvergence is modeled as a per-viewer detection delay: a switch keeps
// routing onto a dead element until Detect (plus a deterministic per-viewer
// jitter) has elapsed, during which its packets blackhole at the physical
// failure point; the drops are counted and traced, never silent. Recovery is
// symmetric — a repaired element is reused only after the viewer's detection
// delay passes again.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"approxsim/internal/des"
	"approxsim/internal/packet"
)

// Kind classifies a fault.
type Kind int

// Supported fault kinds.
const (
	// LinkFault takes down the duplex link between A and B.
	LinkFault Kind = iota
	// SwitchFault takes down device A entirely: it drops every arriving
	// packet and every adjacent link is physically dead while it is down.
	SwitchFault
)

// String names the kind for error messages and traces.
func (k Kind) String() string {
	switch k {
	case LinkFault:
		return "link"
	case SwitchFault:
		return "switch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one scheduled failure episode.
type Fault struct {
	Kind Kind
	// A and B are the link endpoints (either order) for LinkFault; only A is
	// meaningful for SwitchFault.
	A, B packet.NodeID
	// At is the instant the element physically fails.
	At des.Time
	// Recover is the instant the element is physically healthy again. Zero
	// means it never recovers within the simulation.
	Recover des.Time
	// Detect is the base control-plane detection delay: a viewing switch
	// learns of the failure (and, later, of the recovery) this long after the
	// physical event.
	Detect des.Time
	// DetectJitter bounds a deterministic per-viewer extension of Detect,
	// derived by hashing the viewer ID, so different switches reconverge at
	// staggered instants the way independent control planes do.
	DetectJitter des.Time
}

// recoverEnd returns the physical end of the outage, MaxTime if permanent.
func (f *Fault) recoverEnd() des.Time {
	if f.Recover <= 0 {
		return des.MaxTime
	}
	return f.Recover
}

// detectedEdgesFit reports whether the latest detected edges — failure and,
// if any, recovery plus the full detection delay — are representable, so
// viewedWindow and SampleTimes cannot wrap. Delays must be non-negative.
func (f *Fault) detectedEdgesFit() bool {
	if f.DetectJitter > des.MaxTime-f.Detect {
		return false
	}
	last := f.At
	if f.Recover > last {
		last = f.Recover
	}
	return f.Detect+f.DetectJitter <= des.MaxTime-last
}

// Schedule is an immutable set of faults plus the seed salting per-viewer
// detection jitter. The zero value (and nil) is the healthy schedule.
type Schedule struct {
	Faults []Fault
	Seed   uint64
}

// Empty reports whether the schedule contains no faults (nil-safe).
func (s *Schedule) Empty() bool { return s == nil || len(s.Faults) == 0 }

// Validate reports the first structural problem in the schedule, or nil.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, f := range s.Faults {
		switch {
		case f.Kind != LinkFault && f.Kind != SwitchFault:
			return fmt.Errorf("faults: fault %d has unknown kind %d", i, int(f.Kind))
		case f.Kind == LinkFault && f.A == f.B:
			return fmt.Errorf("faults: fault %d is a self-link on node %d", i, f.A)
		case f.At < 0:
			return fmt.Errorf("faults: fault %d fails at negative time %d", i, f.At)
		case f.Recover != 0 && f.Recover <= f.At:
			return fmt.Errorf("faults: fault %d recovers at %v, not after failure at %v",
				i, f.Recover, f.At)
		case f.Detect < 0 || f.DetectJitter < 0:
			return fmt.Errorf("faults: fault %d has negative detection delay", i)
		case !f.detectedEdgesFit():
			return fmt.Errorf("faults: fault %d's detection delay pushes its detected edges past the largest virtual time %v",
				i, des.MaxTime)
		}
	}
	return nil
}

// jitter returns fault i's deterministic extra detection delay as seen by
// viewer, in [0, DetectJitter].
func (s *Schedule) jitter(viewer packet.NodeID, i int) des.Time {
	j := s.Faults[i].DetectJitter
	if j <= 0 {
		return 0
	}
	x := uint64(uint32(viewer))*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9 ^ s.Seed
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return des.Time(x % uint64(j+1))
}

// sameLink reports whether fault f covers the (unordered) link a-b.
func sameLink(f *Fault, a, b packet.NodeID) bool {
	return (f.A == a && f.B == b) || (f.A == b && f.B == a)
}

// LinkDown reports whether the link a-b is physically down at t due to a link
// fault. It does NOT consider endpoint switch failures; see PathDown.
func (s *Schedule) LinkDown(a, b packet.NodeID, t des.Time) bool {
	if s == nil {
		return false
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		if f.Kind == LinkFault && sameLink(f, a, b) && t >= f.At && t < f.recoverEnd() {
			return true
		}
	}
	return false
}

// SwitchDown reports whether device n is physically down at t.
func (s *Schedule) SwitchDown(n packet.NodeID, t des.Time) bool {
	if s == nil {
		return false
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		if f.Kind == SwitchFault && f.A == n && t >= f.At && t < f.recoverEnd() {
			return true
		}
	}
	return false
}

// PathDown reports whether a packet clocked onto link a-b at t is lost to a
// fault: the link itself is down or either endpoint device is. This is the
// predicate the netsim port transmit path evaluates.
func (s *Schedule) PathDown(a, b packet.NodeID, t des.Time) bool {
	return s.LinkDown(a, b, t) || s.SwitchDown(a, t) || s.SwitchDown(b, t)
}

// viewedWindow reports whether t falls inside fault i's outage as seen by
// viewer: the physical window shifted by the viewer's detection delay on both
// edges.
func (s *Schedule) viewedWindow(viewer packet.NodeID, i int, t des.Time) bool {
	f := &s.Faults[i]
	d := f.Detect + s.jitter(viewer, i)
	end := f.recoverEnd()
	if end != des.MaxTime {
		end += d
	}
	return t >= f.At+d && t < end
}

// ViewedLinkDown reports whether viewer believes link a-b is down at t.
func (s *Schedule) ViewedLinkDown(viewer, a, b packet.NodeID, t des.Time) bool {
	if s == nil {
		return false
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		if f.Kind == LinkFault && sameLink(f, a, b) && s.viewedWindow(viewer, i, t) {
			return true
		}
	}
	return false
}

// ViewedSwitchDown reports whether viewer believes device n is down at t.
func (s *Schedule) ViewedSwitchDown(viewer, n packet.NodeID, t des.Time) bool {
	if s == nil {
		return false
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		if f.Kind == SwitchFault && f.A == n && s.viewedWindow(viewer, i, t) {
			return true
		}
	}
	return false
}

// Touches reports whether any fault involves device n (as a link endpoint or
// as the failed switch). Builders use it to wire down-state closures only
// where a fault can ever bite, keeping the healthy fast path untouched.
func (s *Schedule) Touches(n packet.NodeID) bool {
	if s == nil {
		return false
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		if f.A == n || (f.Kind == LinkFault && f.B == n) {
			return true
		}
	}
	return false
}

// TouchesLink reports whether any fault affects the link a-b: a fault on the
// link itself or on either endpoint.
func (s *Schedule) TouchesLink(a, b packet.NodeID) bool {
	if s == nil {
		return false
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		switch f.Kind {
		case LinkFault:
			if sameLink(f, a, b) {
				return true
			}
		case SwitchFault:
			if f.A == a || f.A == b {
				return true
			}
		}
	}
	return false
}

// SampleTimes returns a sorted, deduplicated set of instants at which the
// routing state can change for some viewer: time zero plus, for every fault,
// the physical edges and the base- and worst-case detected edges. Partition
// graph builders evaluate routes at each sample to weight communication edges
// by the union of pre- and post-failure paths.
func (s *Schedule) SampleTimes() []des.Time {
	ts := []des.Time{0}
	if s != nil {
		for i := range s.Faults {
			f := &s.Faults[i]
			ts = append(ts, f.At, f.At+f.Detect, f.At+f.Detect+f.DetectJitter)
			if end := f.recoverEnd(); end != des.MaxTime {
				ts = append(ts, end, end+f.Detect, end+f.Detect+f.DetectJitter)
			}
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	out := ts[:1]
	for _, t := range ts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// Parse builds a schedule from a compact scenario spec. resolve maps a device
// name (e.g. "tor0", "spine1") to its NodeID; the topology package supplies
// it so this package stays topology-agnostic.
//
// Grammar (';'-separated fault clauses):
//
//	link:tor0-spine1@1ms+500us,detect=50us,jitter=10us
//	switch:spine0@2ms+1ms,detect=50us
//
// '@' gives the failure instant, '+' the outage duration (omit for a
// permanent failure); detect and jitter default to zero.
func Parse(spec string, seed uint64, resolve func(name string) (packet.NodeID, error)) (*Schedule, error) {
	s := &Schedule{Seed: seed}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		f, err := parseClause(clause, resolve)
		if err != nil {
			return nil, fmt.Errorf("faults: bad clause %q: %w", clause, err)
		}
		s.Faults = append(s.Faults, f)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseClause(clause string, resolve func(string) (packet.NodeID, error)) (Fault, error) {
	var f Fault
	kind, rest, ok := strings.Cut(clause, ":")
	if !ok {
		return f, fmt.Errorf("missing kind prefix (want link: or switch:)")
	}
	switch kind {
	case "link":
		f.Kind = LinkFault
	case "switch":
		f.Kind = SwitchFault
	default:
		return f, fmt.Errorf("unknown kind %q", kind)
	}
	parts := strings.Split(rest, ",")
	target, timing, ok := strings.Cut(parts[0], "@")
	if !ok {
		return f, fmt.Errorf("missing @failure-time")
	}
	if f.Kind == LinkFault {
		a, b, ok := strings.Cut(target, "-")
		if !ok {
			return f, fmt.Errorf("link target %q wants the form a-b", target)
		}
		na, err := resolve(strings.TrimSpace(a))
		if err != nil {
			return f, err
		}
		nb, err := resolve(strings.TrimSpace(b))
		if err != nil {
			return f, err
		}
		f.A, f.B = na, nb
	} else {
		n, err := resolve(strings.TrimSpace(target))
		if err != nil {
			return f, err
		}
		f.A = n
	}
	at, dur, hasDur := strings.Cut(timing, "+")
	t, err := ParseDuration(at)
	if err != nil {
		return f, fmt.Errorf("failure time: %w", err)
	}
	f.At = t
	if hasDur {
		d, err := ParseDuration(dur)
		if err != nil {
			return f, fmt.Errorf("outage duration: %w", err)
		}
		if d > des.MaxTime-f.At {
			return f, fmt.Errorf("outage ends past the largest virtual time %v", des.MaxTime)
		}
		f.Recover = f.At + d
	}
	for _, opt := range parts[1:] {
		k, v, ok := strings.Cut(strings.TrimSpace(opt), "=")
		if !ok {
			return f, fmt.Errorf("option %q wants key=value", opt)
		}
		d, err := ParseDuration(v)
		if err != nil {
			return f, fmt.Errorf("option %s: %w", k, err)
		}
		switch k {
		case "detect":
			f.Detect = d
		case "jitter":
			f.DetectJitter = d
		default:
			return f, fmt.Errorf("unknown option %q", k)
		}
	}
	return f, nil
}

// ParseDuration parses a virtual-time duration like "500us", "1.5ms", "2s",
// or a bare nanosecond count. Negative, non-finite, and unrepresentable
// (past des.MaxTime nanoseconds) durations are errors.
func ParseDuration(s string) (des.Time, error) {
	s = strings.TrimSpace(s)
	unit := des.Time(1)
	switch {
	case strings.HasSuffix(s, "ns"):
		s = s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		s, unit = s[:len(s)-2], des.Microsecond
	case strings.HasSuffix(s, "µs"):
		s, unit = strings.TrimSuffix(s, "µs"), des.Microsecond
	case strings.HasSuffix(s, "ms"):
		s, unit = s[:len(s)-2], des.Millisecond
	case strings.HasSuffix(s, "s"):
		s, unit = s[:len(s)-1], des.Second
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 || math.IsNaN(v) {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	// 2^63 is exactly representable as a float64 and is the first value past
	// des.MaxTime; the comparison also rejects +Inf.
	ns := v * float64(unit)
	if ns >= 1<<63 {
		return 0, fmt.Errorf("duration %q overflows virtual time (at most %v)", s, des.MaxTime)
	}
	return des.Time(ns), nil
}
