package serve_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"qgov/internal/serve"
	"qgov/internal/serve/client"
	"qgov/internal/wire"
)

// The binary control plane must mirror the HTTP one: create, info,
// checkpoint, delete — same statuses, same JSON bodies — over the same
// connection that carries decisions.
func TestTCPControlPlaneLifecycle(t *testing.T) {
	h := newTestServer(t, serve.Options{CheckpointDir: t.TempDir()})
	ts := newTCPServer(t, h)
	cl, err := client.Dial(ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	st, body, err := cl.CreateSession([]byte(`{"id":"bc0","governor":"rtm","seed":3}`))
	if err != nil || st != http.StatusCreated {
		t.Fatalf("create: status %d body %s err %v", st, body, err)
	}
	var info struct {
		ID       string `json:"id"`
		Governor string `json:"governor"`
		Epochs   int64  `json:"epochs"`
	}
	if err := json.Unmarshal(body, &info); err != nil || info.ID != "bc0" || info.Governor != "rtm" {
		t.Fatalf("create body %s (err %v)", body, err)
	}

	// Duplicate create conflicts, exactly like HTTP.
	if st, _, err = cl.CreateSession([]byte(`{"id":"bc0","governor":"rtm"}`)); err != nil || st != http.StatusConflict {
		t.Fatalf("duplicate create: status %d err %v", st, err)
	}

	// Decide a few epochs so there is state to freeze.
	for i := 0; i < 5; i++ {
		obs := steadyObs()
		obs.Epoch = i
		if d, err := cl.Decide("bc0", obs); err != nil || d.Err != "" {
			t.Fatalf("decide %d: %+v err %v", i, d, err)
		}
	}

	if st, body, err = cl.SessionInfo("bc0"); err != nil || st != http.StatusOK {
		t.Fatalf("info: status %d err %v", st, err)
	}
	if err := json.Unmarshal(body, &info); err != nil || info.Epochs != 5 {
		t.Fatalf("info body %s (err %v)", body, err)
	}

	st, body, err = cl.CheckpointSession("bc0")
	if err != nil || st != http.StatusOK {
		t.Fatalf("checkpoint: status %d err %v", st, err)
	}
	var ck struct {
		Session string          `json:"session"`
		State   json.RawMessage `json:"state"`
	}
	if err := json.Unmarshal(body, &ck); err != nil || ck.Session != "bc0" || len(ck.State) == 0 {
		t.Fatalf("checkpoint body %s (err %v)", body, err)
	}

	// The HTTP oracle sees the same session the binary plane created.
	var hinfo sessionInfo
	if st := h.get("/v1/sessions/bc0", &hinfo); st != http.StatusOK || hinfo.Epochs != 5 {
		t.Fatalf("HTTP sees %+v (status %d)", hinfo, st)
	}

	// List includes it; metrics counts it, and top=1 names it with its
	// epochs.
	if st, body, err = cl.ListSessions("", 0); err != nil || st != http.StatusOK {
		t.Fatalf("list: status %d err %v", st, err)
	}
	var page struct {
		Sessions []struct {
			ID string `json:"id"`
		} `json:"sessions"`
		Next string `json:"next"`
	}
	if err := json.Unmarshal(body, &page); err != nil || len(page.Sessions) != 1 || page.Sessions[0].ID != "bc0" || page.Next != "" {
		t.Fatalf("list body %s (err %v)", body, err)
	}
	if st, body, err = cl.Metrics(1); err != nil || st != http.StatusOK {
		t.Fatalf("metrics: status %d err %v", st, err)
	}
	var m struct {
		Sessions int `json:"sessions"`
		Top      []struct {
			ID     string `json:"id"`
			Epochs int    `json:"epochs"`
		} `json:"top"`
	}
	if err := json.Unmarshal(body, &m); err != nil || m.Sessions != 1 || len(m.Top) != 1 || m.Top[0].ID != "bc0" || m.Top[0].Epochs != 5 {
		t.Fatalf("metrics body %s (err %v)", body, err)
	}

	if st, _, err = cl.DeleteSession("bc0"); err != nil || st != http.StatusNoContent {
		t.Fatalf("delete: status %d err %v", st, err)
	}
	if st, _, err = cl.SessionInfo("bc0"); err != nil || st != http.StatusNotFound {
		t.Fatalf("info after delete: status %d err %v", st, err)
	}

	// Unknown ops answer 400 on both tiers — 0x08 among them, a number no
	// op holds — and the connection keeps deciding after them.
	rf := startRoutedFleet(t, 1, serve.Options{}, serve.RouterOptions{ProbeEvery: -1})
	for _, tier := range []struct {
		name string
		cl   *client.Client
	}{{"flat", cl}, {"router", rf.cl}} {
		id := "uo-" + tier.name
		if st, body, err := tier.cl.CreateSession([]byte(fmt.Sprintf(`{"id":%q,"governor":"ondemand"}`, id))); err != nil || st != http.StatusCreated {
			t.Fatalf("%s: create: status %d body %s err %v", tier.name, st, body, err)
		}
		for _, op := range []byte{0x08, 0x7f} {
			if st, _, err := tier.cl.Control(op, "", nil); err != nil || st != http.StatusBadRequest {
				t.Fatalf("%s: unknown op %#02x: status %d err %v", tier.name, op, st, err)
			}
		}
		if d, err := tier.cl.Decide(id, steadyObs()); err != nil || d.Err != "" {
			t.Fatalf("%s: decide after unknown ops: %+v err %v", tier.name, d, err)
		}
	}
}

// Control frames are ordering barriers: a create written *before* an
// observe on the same connection — in the same kernel write, no round
// trip between them — must be applied before that observe decides.
func TestTCPControlBarrierOrdering(t *testing.T) {
	h := newTestServer(t, serve.Options{})
	ts := newTCPServer(t, h)

	conn, err := net.Dial("tcp", ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var buf []byte
	buf, err = wire.AppendControl(buf, 1, wire.OpCreate, "", []byte(`{"id":"bar0","governor":"ondemand"}`))
	if err != nil {
		t.Fatal(err)
	}
	obs := steadyObs()
	buf, err = wire.AppendObserve(buf, 2, "bar0", &obs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}

	r := wire.NewReader(conn)
	sawCreate, sawDecide := false, false
	for i := 0; i < 2; i++ {
		typ, payload, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case wire.MsgControlReply:
			var cr wire.ControlReply
			if err := cr.Decode(payload); err != nil {
				t.Fatal(err)
			}
			if cr.ID != 1 || cr.Status != 201 {
				t.Fatalf("create reply: %+v (%s)", cr, cr.Body)
			}
			sawCreate = true
		case wire.MsgDecide:
			var d wire.Decide
			if err := d.Decode(payload); err != nil {
				t.Fatal(err)
			}
			if d.ID != 2 || len(d.Err) != 0 || d.OPPIdx < 0 {
				t.Fatalf("decide after create in the same write failed: %+v (%s)", d, d.Err)
			}
			sawDecide = true
		default:
			t.Fatalf("unexpected frame type 0x%02x", typ)
		}
	}
	if !sawCreate || !sawDecide {
		t.Fatalf("saw create=%v decide=%v", sawCreate, sawDecide)
	}
}

// A session created over the binary plane on a checkpointing server must
// freeze on Close and warm-start on re-create — the restart contract,
// independent of which control plane created it.
func TestTCPControlCheckpointGC(t *testing.T) {
	dir := t.TempDir()
	h := newTestServer(t, serve.Options{CheckpointDir: dir})
	ts := newTCPServer(t, h)
	cl, err := client.Dial(ts.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if st, _, err := cl.CreateSession([]byte(`{"id":"gc0","governor":"rtm","seed":1}`)); err != nil || st != http.StatusCreated {
		t.Fatalf("create: status %d err %v", st, err)
	}
	obs := steadyObs()
	if d, err := cl.Decide("gc0", obs); err != nil || d.Err != "" {
		t.Fatalf("decide: %+v err %v", d, err)
	}
	if st, _, err := cl.CheckpointSession("gc0"); err != nil || st != http.StatusOK {
		t.Fatalf("checkpoint: status %d err %v", st, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gc0.state")); err != nil {
		t.Fatalf("checkpoint file missing after explicit checkpoint: %v", err)
	}
	// Deleting the session garbage-collects the state file.
	if st, _, err := cl.DeleteSession("gc0"); err != nil || st != http.StatusNoContent {
		t.Fatalf("delete: status %d err %v", st, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gc0.state")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("checkpoint file survived session delete: %v", err)
	}
}
