package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"qgov/internal/governor"
	"qgov/internal/serve"
	"qgov/internal/serve/client"
)

// benchBatch builds one batched decide body over the given session ids,
// with a plausible steady-state observation per session.
func benchBatch(ids []string) []byte {
	items := make([]decideItem, len(ids))
	for i, id := range ids {
		items[i] = decideItem{Session: id, Obs: obsJSON{
			Epoch:     1,
			Cycles:    []uint64{30e6, 31e6, 29e6, 30e6},
			Util:      []float64{0.6, 0.5, 0.7, 0.6},
			ExecTimeS: 0.025,
			PeriodS:   0.040,
			WallTimeS: 0.040,
			PowerW:    2,
			TempC:     50,
			OPPIdx:    10,
		}}
	}
	raw, err := json.Marshal(map[string]any{"requests": items})
	if err != nil {
		panic(err)
	}
	return raw
}

func benchServer(tb testing.TB, sessions int) (*serve.Server, *httptest.Server, []string, func()) {
	return benchServerOpts(tb, sessions, serve.Options{})
}

func benchServerOpts(tb testing.TB, sessions int, opt serve.Options) (*serve.Server, *httptest.Server, []string, func()) {
	srv := serve.New(opt)
	ts := httptest.NewServer(srv.Handler())
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%d", i)
		body, _ := json.Marshal(map[string]any{"id": ids[i], "governor": "rtm", "seed": i + 1})
		resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			tb.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			tb.Fatalf("create returned %d", resp.StatusCode)
		}
	}
	return srv, ts, ids, func() {
		ts.Close()
		_ = srv.Close()
	}
}

func postBatch(tb testing.TB, ts *httptest.Server, body []byte) {
	resp, err := ts.Client().Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	var out struct {
		Decisions []decision `json:"decisions"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if err != nil {
		tb.Fatal(err)
	}
	for _, d := range out.Decisions {
		if d.Error != "" {
			tb.Fatal(d.Error)
		}
	}
}

// BenchmarkServeDecideThroughput measures the serving hot path end to end
// — HTTP transport, JSON decode, per-session locking, governor decision —
// as batched decisions/second over 64 concurrent RTM sessions. This is
// the number the ≥10k decisions/sec acceptance bar reads.
func BenchmarkServeDecideThroughput(b *testing.B) {
	_, ts, ids, stop := benchServer(b, 64)
	defer stop()
	body := benchBatch(ids)
	postBatch(b, ts, body) // warm the path before timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBatch(b, ts, body)
	}
	b.StopTimer()
	total := float64(len(ids)) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "decisions/s")
	b.ReportMetric(float64(len(ids)), "batch")
}

// BenchmarkBinaryDecideThroughput measures the transport fast path end
// to end — persistent TCP, binary frames, connection-level batching,
// governor decision — as batched decisions/second over 256 concurrent
// RTM sessions on one multiplexed connection. The ≥500k decisions/s
// acceptance bar (4× the HTTP+JSON path of BENCH_2.json) reads this
// number.
func BenchmarkBinaryDecideThroughput(b *testing.B) {
	const sessions = 256
	srv, _, ids, stop := benchServer(b, sessions)
	defer stop()

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	tcpSrv := serve.NewTCP(srv, lis)
	go func() { _ = tcpSrv.Serve() }()
	defer tcpSrv.Close()

	cl, err := client.Dial(lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	obs := make([]governor.Observation, sessions)
	out := make([]client.Decision, sessions)
	for i := range obs {
		obs[i] = steadyObs()
	}
	check := func() {
		if err := cl.DecideBatch(ids, obs, out); err != nil {
			b.Fatal(err)
		}
		for _, d := range out {
			if d.Err != "" {
				b.Fatal(d.Err)
			}
		}
	}
	check() // warm the path (and the connection) before timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.DecideBatch(ids, obs, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	check() // errors would have surfaced per entry; spot-check once more
	total := float64(sessions) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "decisions/s")
	b.ReportMetric(float64(sessions), "batch")
}

// BenchmarkCheckpointSweep measures one all-dirty checkpoint sweep of
// 2,000 RTM sessions (5 decides each before the first sweep, one more
// before every later one) into a checkpoint directory: encode under the
// session lock plus the atomic file write, per session. B/session is the
// heap the sweep allocates, the garbage a periodic sweep leaves behind.
func BenchmarkCheckpointSweep(b *testing.B) {
	const sessions = 2000
	srv, ts, ids, stop := benchServerOpts(b, sessions, serve.Options{CheckpointDir: b.TempDir()})
	defer stop()
	body := benchBatch(ids)
	for i := 0; i < 4; i++ {
		postBatch(b, ts, body)
	}
	var before, after runtime.MemStats
	var allocated uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		postBatch(b, ts, body) // dirty every session
		runtime.ReadMemStats(&before)
		b.StartTimer()
		n, err := srv.CheckpointAll()
		b.StopTimer()
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc
		if err != nil || n != sessions {
			b.Fatalf("sweep wrote %d of %d sessions: %v", n, sessions, err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	per := float64(b.N) * sessions
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/session")
	b.ReportMetric(float64(allocated)/per, "B/session")
}

// The throughput floor as a plain test, far below the benchmark's real
// figure so it holds even under -race on loaded CI machines: half a
// second of hammering must clear 1k decisions/sec.
func TestServeThroughputFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput floor is timing-dependent")
	}
	_, ts, ids, stop := benchServer(t, 64)
	defer stop()
	body := benchBatch(ids)
	deadline := time.Now().Add(500 * time.Millisecond)
	start := time.Now()
	var decisions int
	for time.Now().Before(deadline) {
		postBatch(t, ts, body)
		decisions += len(ids)
	}
	rate := float64(decisions) / time.Since(start).Seconds()
	t.Logf("sustained %.0f decisions/s", rate)
	if rate < 1000 {
		t.Errorf("sustained only %.0f decisions/s, floor is 1000", rate)
	}
}
