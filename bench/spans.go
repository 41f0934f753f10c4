package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanKind names the benchmark's own spans: each wraps one call into a
// layer's public surface, made from outside the server.
type spanKind uint8

const (
	spanWait   spanKind = iota // the lane sleeping until its next event is due
	spanDecide                 // client DecideBatch round trip
	spanApply                  // reply processing; sim.Session.Step on paper-fleet
	spanCreate                 // CreateSession round trip
	spanDelete                 // DeleteSession round trip
	spanScrape                 // GET /v1/metrics?format=prometheus
)

var spanNames = [...]string{"wait", "decide_batch", "apply", "create", "delete", "scrape"}

// span is one recorded interval, in nanoseconds from the timed phase's
// start. parent indexes the same buffer (-1: none); n is the batch size.
type span struct {
	kind       spanKind
	parent     int32
	n          int32
	start, end int64
}

// spanBuf is one goroutine's preallocated span buffer. Recording never
// allocates; a full buffer drops spans and counts them. All methods are
// no-ops on a nil buffer, which is how untraced runs skip tracing.
type spanBuf struct {
	lane    int
	s       []span
	dropped int
}

// spanCap bounds each lane's span buffer.
const spanCap = 1 << 18

func newSpanBuf(lane, capacity int) *spanBuf {
	return &spanBuf{lane: lane, s: make([]span, 0, capacity)}
}

func (b *spanBuf) begin(k spanKind, parent int32, t0 time.Time) int32 {
	if b == nil {
		return -1
	}
	if len(b.s) == cap(b.s) {
		b.dropped++
		return -1
	}
	b.s = append(b.s, span{kind: k, parent: parent, start: int64(time.Since(t0))})
	return int32(len(b.s) - 1)
}

func (b *spanBuf) end(i int32, t0 time.Time, n int) {
	if b == nil || i < 0 {
		return
	}
	b.s[i].end = int64(time.Since(t0))
	b.s[i].n = int32(n)
}

// durations returns the durations (µs) of every span of one kind.
func durations(bufs []*spanBuf, k spanKind) []float64 {
	var out []float64
	for _, b := range bufs {
		for _, s := range b.s {
			if s.kind == k && s.end > 0 {
				out = append(out, float64(s.end-s.start)/1e3)
			}
		}
	}
	return out
}

// writeSpans writes every span as one JSON line.
func writeSpans(path, workload string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, b := range bufs {
		for i, s := range b.s {
			fmt.Fprintf(w, `{"id":%d,"lane":%d,"name":%q,"parent":%d,"start_ns":%d,"end_ns":%d,"n":%d,"workload":%q}`+"\n",
				i, b.lane, spanNames[s.kind], s.parent, s.start, s.end, s.n, workload)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
