// Package trace is the serving tier's low-overhead decide-path tracer.
//
// A Tracer makes two sampling decisions. Head sampling picks a small
// probabilistic fraction of decide batches up front (Sample), assigning
// them a trace id that rides the wire protocol through every tier a
// request crosses — router relay, replica decide — so the spans
// recorded at each hop stitch together under one id. Tail
// capture (Slow) additionally records any batch slower than a threshold
// regardless of the head decision, which is what catches the p999
// outlier a 1-in-1024 head sample would almost always miss.
//
// Recorded spans land in a fixed-capacity lock-free ring buffer: writers
// claim a slot with one atomic increment and publish with one atomic
// pointer store, so recording never blocks a decide and the buffer never
// grows. Readers (the /v1/trace endpoint) snapshot whatever is published.
// Overwritten history is gone — this is a flight recorder, not a log.
//
// All Tracer methods are safe on a nil receiver and act as "tracing
// off": Sample and Slow return false, Record drops, Snapshot is empty.
// Call sites therefore need no nil guards on the hot path.
package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// TraceID identifies one traced decide across every tier it crosses.
// It marshals as a 16-hex-digit string (the form the wire protocol and
// /v1/trace queries use); zero means "not traced" and never appears on
// a recorded span.
type TraceID uint64

// String renders the canonical 16-hex-digit form.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// MarshalJSON renders the id as its hex string.
func (t TraceID) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON accepts the hex string form (with or without quotes'
// leading zeros).
func (t *TraceID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	id, err := ParseID(s)
	if err != nil {
		return err
	}
	*t = id
	return nil
}

// ParseID parses the hex string form of a TraceID.
func ParseID(s string) (TraceID, error) {
	if s == "" || len(s) > 16 {
		return 0, fmt.Errorf("trace: bad id %q", s)
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case '0' <= c && c <= '9':
			d = uint64(c - '0')
		case 'a' <= c && c <= 'f':
			d = uint64(c-'a') + 10
		case 'A' <= c && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, fmt.Errorf("trace: bad id %q", s)
		}
		v = v<<4 | d
	}
	return TraceID(v), nil
}

// Span is one recorded stage of a traced decide. Stage names in use:
// "route" (router batch, admission to last reply), "relay" (one
// replica-group hop inside a routed batch), "decide" (one session's
// decision on a replica), "decide.batch" (a whole replica batch, tail
// captures).
type Span struct {
	Trace   TraceID `json:"trace"`
	Stage   string  `json:"stage"`
	Origin  string  `json:"origin,omitempty"`  // which server recorded it ("router", replica addr)
	Session string  `json:"session,omitempty"` // for per-session stages
	Replica string  `json:"replica,omitempty"` // relay destination
	Start   int64   `json:"start_unix_ns"`
	DurUS   float64 `json:"dur_us"`
	Batch   int     `json:"batch,omitempty"` // requests in the batch, for batch stages
	Err     string  `json:"err,omitempty"`
	Slow    bool    `json:"slow,omitempty"` // recorded by tail capture, not head sampling
}

// Filter selects spans out of a Snapshot.
type Filter struct {
	MinDurUS float64 // only spans at least this slow
	Session  string  // only spans for this session (batch spans have none and never match)
	Trace    TraceID // only spans under this trace id
	Limit    int     // at most this many spans, newest first (0: all)
}

// Options configures a Tracer.
type Options struct {
	// SampleProb is the head-sampling probability in [0, 1]. 0 disables
	// head sampling; tail capture still fires.
	SampleProb float64
	// Slow is the tail-capture threshold: any batch at least this slow
	// is recorded even when not head-sampled. 0 disables tail capture.
	Slow time.Duration
	// Capacity is the ring size in spans (default 4096, min 16).
	Capacity int
}

// Tracer records sampled spans into a lock-free ring. The zero value is
// not usable; construct with New. A nil *Tracer is valid everywhere and
// means tracing is off.
type Tracer struct {
	slots []atomic.Pointer[Span]
	next  atomic.Uint64 // next slot to claim (monotone; slot = next % len)
	idctr atomic.Uint64 // trace-id generator state
	// sampleBits is the head-sampling threshold in 63-bit space:
	// sampled iff mixed>>1 < sampleBits. 2^63 ⇒ always, 0 ⇒ never.
	sampleBits uint64
	slowNS     int64
}

// New builds a Tracer. A Tracer with SampleProb 0 and Slow 0 still
// accepts propagated trace ids (a router upstream may have sampled).
func New(o Options) *Tracer {
	cap := o.Capacity
	if cap <= 0 {
		cap = 4096
	}
	if cap < 16 {
		cap = 16
	}
	p := o.SampleProb
	if math.IsNaN(p) || p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	t := &Tracer{
		slots:      make([]atomic.Pointer[Span], cap),
		sampleBits: uint64(p * float64(uint64(1)<<63)),
		slowNS:     o.Slow.Nanoseconds(),
	}
	// Seed the id counter off the wall clock so two servers started
	// together do not mint colliding trace ids.
	t.idctr.Store(uint64(time.Now().UnixNano()))
	return t
}

// splitmix64 is the id/sampling mixer: one xor-shift-multiply cascade,
// full-period over the counter, good enough avalanche that the low bits
// of sequential counters are uniform.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sample makes the head-sampling decision for one batch. When sampled
// it returns a fresh nonzero trace id. The cost of an unsampled call is
// one atomic increment and a few ALU ops.
func (t *Tracer) Sample() (TraceID, bool) {
	if t == nil || t.sampleBits == 0 {
		return 0, false
	}
	mixed := splitmix64(t.idctr.Add(1))
	if mixed>>1 >= t.sampleBits {
		return 0, false
	}
	id := TraceID(splitmix64(mixed))
	if id == 0 {
		id = 1 // zero means "untraced" on the wire; never mint it
	}
	return id, true
}

// ID mints a fresh nonzero trace id without a sampling decision — for
// callers that already decided to trace (tail capture, tests).
func (t *Tracer) ID() TraceID {
	if t == nil {
		return 0
	}
	id := TraceID(splitmix64(t.idctr.Add(1)))
	if id == 0 {
		id = 1
	}
	return id
}

// Slow reports whether a batch of the given duration crosses the
// tail-capture threshold.
func (t *Tracer) Slow(d time.Duration) bool {
	return t != nil && t.slowNS > 0 && d.Nanoseconds() >= t.slowNS
}

// Enabled reports whether this tracer can ever record anything on its
// own (head sampling or tail capture configured). Propagated spans are
// recorded regardless.
func (t *Tracer) Enabled() bool {
	return t != nil && (t.sampleBits != 0 || t.slowNS > 0)
}

// Record publishes one span into the ring, overwriting the oldest slot
// once full. Safe from any number of goroutines; never blocks.
func (t *Tracer) Record(s Span) {
	if t == nil || s.Trace == 0 {
		return
	}
	if s.Start == 0 {
		s.Start = time.Now().UnixNano()
	}
	slot := t.next.Add(1) - 1
	t.slots[slot%uint64(len(t.slots))].Store(&s)
}

// Len reports how many spans are currently published.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := t.next.Load()
	if n > uint64(len(t.slots)) {
		return len(t.slots)
	}
	return int(n)
}

// Snapshot copies out the published spans matching f, newest first.
func (t *Tracer) Snapshot(f Filter) []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, 64)
	for i := range t.slots {
		sp := t.slots[i].Load()
		if sp == nil {
			continue
		}
		if f.MinDurUS > 0 && sp.DurUS < f.MinDurUS {
			continue
		}
		if f.Session != "" && sp.Session != f.Session {
			continue
		}
		if f.Trace != 0 && sp.Trace != f.Trace {
			continue
		}
		out = append(out, *sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start > out[j].Start })
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}
