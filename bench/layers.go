package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"qgov/internal/governor"
	"qgov/internal/qpage"
	"qgov/internal/scenario"
	"qgov/internal/sessionstore"
	"qgov/internal/strhash"
	"qgov/internal/trace"
	"qgov/internal/wire"
)

// layerProbe is the servers' counters at one instant: the front's
// Prometheus exposition and every process's runtime snapshot.
type layerProbe struct {
	front prom
	rt    []runtimeSnap
}

type runtimeSnap struct {
	gcCycles             float64
	gcPauseP99, schedP99 float64 // seconds
	heapLive, rss        float64 // bytes, MB
}

func probeLayers(f *fleet) (*layerProbe, error) {
	p, err := f.front.scrape()
	if err != nil {
		return nil, err
	}
	lp := &layerProbe{front: p}
	for _, pr := range f.procs {
		rs, err := pr.runtimeStats()
		if err != nil {
			return nil, err
		}
		rss, err := rssMB(pr.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		lp.rt = append(lp.rt, runtimeSnap{float64(rs.GCCycles), rs.GCPauseP99S, rs.SchedLatencyP99S, float64(rs.HeapLiveBytes), rss})
	}
	return lp, nil
}

// ckptWatch marks checkpoint-sweep windows: every 100 ms it stats the
// checkpoint directory, whose modification time moves with each file a
// sweep writes. Polling a stat costs the server nothing, where polling
// its metrics would cost a walk over every session.
type ckptWatch struct {
	stopc   chan struct{}
	done    chan struct{}
	windows [][2]int64 // ns from the timed phase's start
}

func watchCheckpoints(dir string, start time.Time) *ckptWatch {
	w := &ckptWatch{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var last time.Time
		prev := int64(time.Since(start))
		for {
			select {
			case <-w.stopc:
				return
			case <-tick.C:
			}
			now := int64(time.Since(start))
			if fi, err := os.Stat(dir); err == nil && !fi.ModTime().Equal(last) {
				if !last.IsZero() {
					if n := len(w.windows); n > 0 && w.windows[n-1][1] == prev {
						w.windows[n-1][1] = now
					} else {
						w.windows = append(w.windows, [2]int64{prev, now})
					}
				}
				last = fi.ModTime()
			}
			prev = now
		}
	}()
	return w
}

func (w *ckptWatch) stop() {
	close(w.stopc)
	<-w.done
}

// overlaps reports whether [a, b] meets any of the intervals.
func overlaps(iv [][2]int64, a, b int64) bool {
	for _, w := range iv {
		if a <= w[1] && b >= w[0] {
			return true
		}
	}
	return false
}

// splitRTT splits decide-batch round trips into those overlapping the
// intervals and the rest.
func splitRTT(bufs []*spanBuf, iv [][2]int64) (in, out []float64) {
	for _, b := range bufs {
		for _, s := range b.s {
			if s.kind != spanDecide || s.end == 0 {
				continue
			}
			d := float64(s.end-s.start) / 1e3
			if overlaps(iv, s.start, s.end) {
				in = append(in, d)
			} else {
				out = append(out, d)
			}
		}
	}
	return in, out
}

// tail99 is the p99 (or the highest tail the sample supports); 0 for an
// empty sample.
func tail99(v []float64) float64 { return summarize(v).Tail }

// readLayers reads the per-layer numbers a traced pass can take from the
// live servers and from the benchmark's own spans, and writes both span
// sets to the output directory.
func readLayers(cfg config, w *workload, f *fleet, e *env, pre *layerProbe, watch *ckptWatch) (map[string]float64, error) {
	post, err := probeLayers(f)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}

	lock := post.front.hist("rtmd_decision_latency_seconds").minus(pre.front.hist("rtmd_decision_latency_seconds"))
	m["serve.decide_lock_p50_us"] = lock.quantileUS(0.5)
	m["serve.decide_lock_p99_us"] = lock.quantileUS(0.99)
	var clientOK int64
	for _, l := range e.lanes {
		clientOK += l.ok
	}
	m["serve.decisions"] = post.front.value("rtmd_decisions_total")
	if m["serve.decisions"] != float64(clientOK) {
		return nil, fmt.Errorf("servers count %v decisions, the generator saw %d succeed", m["serve.decisions"], clientOK)
	}

	bufs := []*spanBuf{e.scrapeSpans}
	var rtt, size []float64
	for _, l := range e.lanes {
		bufs = append(bufs, l.spans)
		rtt = append(rtt, l.rtt...)
		size = append(size, l.size...)
	}
	rttD := summarize(rtt)
	m["client.batch_rtt_p50_us"] = rttD.P50
	m["client.batch_rtt_p99_us"] = rttD.Tail
	var total float64
	for _, s := range size {
		total += s
	}
	m["client.batch_size_mean"] = total / math.Max(1, float64(len(size)))

	// Controls timed inside the phase (churn) or, where the phase has
	// none, the set-up's creates.
	creates := durations(bufs, spanCreate)
	if len(creates) == 0 {
		for _, l := range e.lanes {
			creates = append(creates, l.ctl...)
		}
	}
	createD := summarize(creates)
	m["control.create_p50_us"] = createD.P50
	m["control.create_p99_us"] = createD.Tail
	m["control.delete_p99_us"] = tail99(durations(bufs, spanDelete))

	m["checkpoint.writes"] = post.front.value("rtmd_checkpoint_writes_total") - pre.front.value("rtmd_checkpoint_writes_total")
	m["checkpoint.skipped"] = post.front.value("rtmd_checkpoint_skipped_total") - pre.front.value("rtmd_checkpoint_skipped_total")
	m["checkpoint.window_rtt_p99_us"], m["checkpoint.outside_rtt_p99_us"] = 0, 0
	if watch != nil {
		in, out := splitRTT(bufs, watch.windows)
		m["checkpoint.window_rtt_p99_us"], m["checkpoint.outside_rtt_p99_us"] = tail99(in), tail99(out)
	}
	var scrapes [][2]int64
	for _, s := range e.scrapeSpans.s {
		scrapes = append(scrapes, [2]int64{s.start, s.end})
	}
	in, _ := splitRTT(bufs, scrapes)
	m["metrics.window_rtt_p99_us"] = tail99(in)
	m["metrics.scrape_bytes"] = float64(e.scrapeBytes)
	m["metrics.loaded_scrape_p50_ms"] = median(e.scrapeMS)

	m["qpage.pool_pages_end"] = post.front.value("rtmd_qtable_pool_pages")
	m["qpage.cow_faults"] = post.front.value("rtmd_qtable_cow_faults_total") - pre.front.value("rtmd_qtable_cow_faults_total")

	var gc, pause, sched, heap, rss float64
	for i, r := range post.rt {
		gc += r.gcCycles - pre.rt[i].gcCycles
		pause = math.Max(pause, r.gcPauseP99)
		sched = math.Max(sched, r.schedP99)
		heap += r.heapLive
		rss += r.rss
	}
	m["runtime.gc_cycles"] = gc
	m["runtime.gc_pause_p99_us"] = pause * 1e6
	m["runtime.sched_latency_p99_us"] = sched * 1e6
	m["runtime.heap_live_mb"] = heap / (1 << 20)
	m["proc.rss_mb"] = rss

	// The servers' own sampled spans: router self time (route minus the
	// relays it waited on) and per-session decide time.
	body, err := get("http://" + f.front.httpAddr + "/v1/trace")
	if err != nil {
		return nil, err
	}
	var spans []trace.Span
	if err := json.Unmarshal(body, &spans); err != nil {
		return nil, fmt.Errorf("decoding /v1/trace: %w", err)
	}
	// The router's own relay spans time its hops exactly; its route_hops
	// histogram has 400 µs bins, too coarse for a hop of ~200 µs.
	self, hops, decides := serverSpanTimes(spans)
	hopD := summarize(hops)
	m["span.router_self_p50_us"], m["span.decide_p50_us"] = summarize(self).P50, summarize(decides).P50
	m["router.hop_p50_us"], m["router.hop_p99_us"] = hopD.P50, hopD.Tail
	m["router.relay_overhead_p50_us"] = 0
	if len(hops) > 0 {
		m["router.relay_overhead_p50_us"] = rttD.P50 - hopD.P50
	}

	dropped := 0
	for _, b := range bufs {
		dropped += b.dropped
	}
	if dropped > 0 {
		fmt.Printf("%s: %d spans dropped (buffers full)\n", w.name, dropped)
	}
	if err := writeSpans(filepath.Join(cfg.out, w.name+".spans.jsonl"), w.name, bufs); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, w.name+".server-spans.json"), body, 0o644); err != nil {
		return nil, err
	}
	return m, nil
}

// serverSpanTimes reduces the servers' sampled spans to the router's
// self time per routed batch (its route span less the union of the relay
// spans under it), the relay hops, and the per-session decide times, all
// in µs.
func serverSpanTimes(spans []trace.Span) (routerSelf, hops, decides []float64) {
	relays := map[trace.TraceID][][2]float64{}
	for _, s := range spans {
		switch s.Stage {
		case "relay":
			relays[s.Trace] = append(relays[s.Trace], [2]float64{float64(s.Start), float64(s.Start) + s.DurUS*1e3})
			hops = append(hops, s.DurUS)
		case "decide":
			decides = append(decides, s.DurUS)
		}
	}
	for _, s := range spans {
		if s.Stage != "route" {
			continue
		}
		lo, hi := float64(s.Start), float64(s.Start)+s.DurUS*1e3
		iv := relays[s.Trace]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, end := 0.0, lo
		for _, r := range iv {
			a, b := math.Max(r[0], end), math.Min(r[1], hi)
			if b > a {
				covered += b - a
				end = b
			}
		}
		routerSelf = append(routerSelf, (hi-lo-covered)/1e3)
	}
	return routerSelf, hops, decides
}

// recordDecides is how many decides a traced pass keeps for the
// in-process layer replays.
const recordDecides = 1 << 15

// recorder keeps copies of the first decides a traced pass sends, in
// preallocated storage, for the in-process replays.
type recorder struct {
	ids  []string
	obs  []governor.Observation
	cyc  []uint64
	util []float64
}

func newRecorder(n int) *recorder {
	return &recorder{
		ids: make([]string, 0, n), obs: make([]governor.Observation, 0, n),
		cyc: make([]uint64, 0, 8*n), util: make([]float64, 0, 8*n),
	}
}

// add copies one decide while there is room.
func (r *recorder) add(id string, o *governor.Observation) {
	if r == nil || len(r.ids) == cap(r.ids) || len(r.cyc)+len(o.Cycles) > cap(r.cyc) || len(r.util)+len(o.Util) > cap(r.util) {
		return
	}
	c := append(r.cyc, o.Cycles...)
	u := append(r.util, o.Util...)
	cp := *o
	cp.Cycles, cp.Util = c[len(r.cyc):], u[len(r.util):]
	r.cyc, r.util = c, u
	r.ids = append(r.ids, id)
	r.obs = append(r.obs, cp)
}

// merge gathers the lanes' recordings.
func merge(parts []*recorder) *recorder {
	out := &recorder{}
	for _, p := range parts {
		out.ids = append(out.ids, p.ids...)
		out.obs = append(out.obs, p.obs...)
	}
	return out
}

// replayLayers times the in-process layers on the decides a traced pass
// recorded: the governor, the session store over the workload's id set,
// and the wire codec.
func replayLayers(rec *recorder, ids []string) (map[string]float64, error) {
	if len(rec.ids) == 0 {
		return nil, fmt.Errorf("no decides recorded")
	}
	m := map[string]float64{}
	var err error
	if m["governor.decide_ns"], m["governor.decide_allocs"], err = replayGovernor(rec); err != nil {
		return nil, err
	}
	m["sessionstore.put_ns"], m["sessionstore.get_ns"], m["sessionstore.delete_ns"] = replayStore(ids)
	replayWire(rec, m)
	return m, nil
}

// nsPerOp runs f (n operations) until at least 100 ms and three runs
// have passed and returns the median time per operation. prep, when not
// nil, runs untimed before each run.
func nsPerOp(n int, prep, f func()) float64 {
	var per []float64
	for t0 := time.Now(); len(per) < 3 || time.Since(t0) < 100*time.Millisecond; {
		if prep != nil {
			prep()
		}
		s := time.Now()
		f()
		per = append(per, float64(time.Since(s))/float64(n))
	}
	return median(per)
}

// replayGovernor feeds the recorded observations to RTM governors built
// the way the server builds them (a15 platform, shared page pool), one
// governor per session, after one untimed pass.
func replayGovernor(rec *recorder) (ns, allocs float64, err error) {
	plat, err := scenario.PlatformByName("a15")
	if err != nil {
		return 0, 0, err
	}
	c := plat.NewCluster(0)
	table := c.Table()
	ctx := governor.Context{Table: table, NumCores: c.NumCores(), NormFreq: table.NormFreqs(), QPool: qpage.NewPool()}
	byID := map[string]governor.Governor{}
	govs := make([]governor.Governor, len(rec.ids))
	for i, id := range rec.ids {
		g := byID[id]
		if g == nil {
			if g, err = governor.ByName("rtm"); err != nil {
				return 0, 0, err
			}
			ctx.PeriodS, ctx.Seed = rec.obs[i].PeriodS, int64(strhash.String(id))
			g.Reset(ctx)
			byID[id] = g
		}
		govs[i] = g
	}
	pass := func() {
		for i, g := range govs {
			g.Decide(rec.obs[i])
		}
	}
	pass()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runs := 0
	ns = nsPerOp(len(govs), nil, func() { pass(); runs++ })
	runtime.ReadMemStats(&m1)
	return ns, float64(m1.Mallocs-m0.Mallocs) / float64(runs*len(govs)), nil
}

// replayStore times put, get and delete on the sharded session store
// over the workload's session ids.
func replayStore(ids []string) (put, get, del float64) {
	keys := make([][]byte, len(ids))
	for i, id := range ids {
		keys[i] = []byte(id)
	}
	v := new(int)
	s := sessionstore.NewSharded[*int](0)
	fresh := func() { s = sessionstore.NewSharded[*int](0) }
	putAll := func() {
		for _, id := range ids {
			s.Put(id, v)
		}
	}
	put = nsPerOp(len(ids), fresh, putAll)
	var hits int
	get = nsPerOp(len(keys), nil, func() {
		for _, k := range keys {
			if _, ok := s.GetBytes(k); ok {
				hits++
			}
		}
	})
	del = nsPerOp(len(ids), func() { fresh(); putAll() }, func() {
		for _, id := range ids {
			s.Delete(id)
		}
	})
	return put, get, del
}

// replayWire times the codec on the recorded decides: observe frames as
// the client encodes and the server decodes them, decide frames the
// other way.
func replayWire(rec *recorder, m map[string]float64) {
	n := len(rec.ids)
	var obsBuf, decBuf []byte
	m["wire.observe_encode_ns"] = nsPerOp(n, nil, func() {
		obsBuf = obsBuf[:0]
		for i := range rec.ids {
			obsBuf, _ = wire.AppendObserve(obsBuf, uint32(i), rec.ids[i], &rec.obs[i])
		}
	})
	var o wire.Observe
	m["wire.observe_decode_ns"] = nsPerOp(n, nil, func() {
		for b := obsBuf; len(b) > 0; {
			_, payload, rest, err := wire.DecodeFrame(b)
			if err != nil {
				break
			}
			_ = o.Decode(payload)
			b = rest
		}
	})
	m["wire.decide_encode_ns"] = nsPerOp(n, nil, func() {
		decBuf = decBuf[:0]
		for i := range rec.ids {
			decBuf, _ = wire.AppendDecide(decBuf, uint32(i), 0, int32(rec.obs[i].OPPIdx), 1000, "")
		}
	})
	var d wire.Decide
	m["wire.decide_decode_ns"] = nsPerOp(n, nil, func() {
		for b := decBuf; len(b) > 0; {
			_, payload, rest, err := wire.DecodeFrame(b)
			if err != nil {
				break
			}
			_ = d.Decode(payload)
			b = rest
		}
	})
	m["wire.bytes_per_decide"] = float64(len(obsBuf)+len(decBuf)) / float64(n)
}
