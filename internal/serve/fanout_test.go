package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"qgov/internal/governor"
	"qgov/internal/serve"
	"qgov/internal/serve/client"
	"qgov/internal/sim"
)

// decideFront is one way of reaching a serving tier: create sessions,
// decide batches and freeze state over either the JSON API or the
// binary transport.
type decideFront struct {
	create     func(t *testing.T, body []byte)
	decide     func(t *testing.T, ids []string, obs []governor.Observation) []client.Decision
	checkpoint func(t *testing.T, id string) []byte
}

// jsonFront drives a tier through its HTTP API.
func jsonFront(url string) decideFront {
	post := func(t *testing.T, path string, body []byte, want int, out any) {
		t.Helper()
		resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s returned %d, want %d", path, resp.StatusCode, want)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("decoding %s response: %v", path, err)
			}
		}
	}
	return decideFront{
		create: func(t *testing.T, body []byte) { post(t, "/v1/sessions", body, http.StatusCreated, nil) },
		decide: func(t *testing.T, ids []string, obs []governor.Observation) []client.Decision {
			items := make([]decideItem, len(ids))
			for i := range ids {
				items[i] = decideItem{Session: ids[i], Obs: obsFromGov(obs[i])}
			}
			body, err := json.Marshal(map[string]any{"requests": items})
			if err != nil {
				t.Fatal(err)
			}
			var resp struct {
				Decisions []decision `json:"decisions"`
			}
			post(t, "/v1/decide", body, http.StatusOK, &resp)
			out := make([]client.Decision, len(resp.Decisions))
			for i, d := range resp.Decisions {
				out[i] = client.Decision{OPPIdx: d.OPPIdx, FreqMHz: d.FreqMHz, Err: d.Error}
			}
			return out
		},
		checkpoint: func(t *testing.T, id string) []byte {
			var ck struct {
				State json.RawMessage `json:"state"`
			}
			post(t, "/v1/sessions/"+id+"/checkpoint", nil, http.StatusOK, &ck)
			return ck.State
		},
	}
}

// binaryFront drives a tier through one binary-transport client.
func binaryFront(t *testing.T, addr string) decideFront {
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return decideFront{
		create: func(t *testing.T, body []byte) {
			if st, resp, err := cl.CreateSession(body); err != nil || st != http.StatusCreated {
				t.Fatalf("create returned %d (%s), err %v", st, resp, err)
			}
		},
		decide: func(t *testing.T, ids []string, obs []governor.Observation) []client.Decision {
			out := make([]client.Decision, len(ids))
			if err := cl.DecideBatch(ids, obs, out); err != nil {
				t.Fatal(err)
			}
			return out
		},
		checkpoint: func(t *testing.T, id string) []byte {
			st, body, err := cl.CheckpointSession(id)
			if err != nil || st != http.StatusOK {
				t.Fatalf("checkpoint %s returned %d (%s), err %v", id, st, body, err)
			}
			var ck struct {
				State json.RawMessage `json:"state"`
			}
			if err := json.Unmarshal(body, &ck); err != nil {
				t.Fatal(err)
			}
			return ck.State
		},
	}
}

// fanOutObservations records n consecutive observations of one sim
// session stepped through a fixed OPP pattern, copied out of the
// session's scratch buffers.
func fanOutObservations(t *testing.T, n int) []governor.Observation {
	t.Helper()
	s := sim.NewSession(scenarioConfig(t, "rtm/mpeg4-30fps/a15", 3, n+1))
	obs := make([]governor.Observation, n)
	for i := range obs {
		o := s.Observe()
		o.Cycles, o.Util = slices.Clone(o.Cycles), slices.Clone(o.Util)
		obs[i] = o
		s.Step(i % 8)
	}
	return obs
}

// TestSameSessionBatchKeepsArrivalOrder sends one 64-entry batch — past
// the parallel fan-out threshold — carrying 64 observations for a single
// session, and the same 64 observations as 64 single-entry decides to a
// twin session with the same seed. The batch must apply in arrival
// order: decisions and frozen state byte-identical to the serial twin.
// A second shape interleaves three sessions through the batch. Both
// transports, on a flat server and through a one-replica router.
func TestSameSessionBatchKeepsArrivalOrder(t *testing.T) {
	const n = 64
	obs := fanOutObservations(t, n)
	create := func(id string) []byte {
		return []byte(fmt.Sprintf(`{"id":%q,"governor":"rtm","seed":11,"period_s":%v}`, id, obs[1].PeriodS))
	}

	flat, flatAddrs := newFleet(t, 1, serve.Options{})
	flatHTTP := httptest.NewServer(flat[0].srv.Handler())
	t.Cleanup(flatHTTP.Close)

	_, addrs := newFleet(t, 1, serve.Options{})
	rt, err := serve.NewRouter(addrs, serve.RouterOptions{ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	rtHTTP := httptest.NewServer(rt.Handler())
	t.Cleanup(rtHTTP.Close)

	fronts := []struct {
		name  string
		front decideFront
	}{
		{"flat/json", jsonFront(flatHTTP.URL)},
		{"flat/binary", binaryFront(t, flatAddrs[0])},
		{"router/json", jsonFront(rtHTTP.URL)},
		{"router/binary", binaryFront(t, startRouterTCP(t, rt))},
	}
	for i, fr := range fronts {
		for _, sessions := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/sessions=%d", fr.name, sessions), func(t *testing.T) {
				batchID := func(k int) string { return fmt.Sprintf("fan-batch-%d-%d-%d", i, sessions, k%sessions) }
				serialID := func(k int) string { return fmt.Sprintf("fan-serial-%d-%d-%d", i, sessions, k%sessions) }
				for k := 0; k < sessions; k++ {
					fr.front.create(t, create(batchID(k)))
					fr.front.create(t, create(serialID(k)))
				}

				ids := make([]string, n)
				for k := range ids {
					ids[k] = batchID(k)
				}
				got := fr.front.decide(t, ids, obs)
				for k := range obs {
					want := fr.front.decide(t, []string{serialID(k)}, obs[k:k+1])[0]
					if want.Err != "" {
						t.Fatalf("serial decide %d failed: %s", k, want.Err)
					}
					if got[k] != want {
						t.Fatalf("batch entry %d decided %+v, serial twin %+v", k, got[k], want)
					}
				}
				for k := 0; k < sessions; k++ {
					b, s := fr.front.checkpoint(t, batchID(k)), fr.front.checkpoint(t, serialID(k))
					if !bytes.Equal(b, s) {
						t.Fatalf("%s's state differs from its serial twin's (%d vs %d bytes)", batchID(k), len(b), len(s))
					}
				}
			})
		}
	}
}
