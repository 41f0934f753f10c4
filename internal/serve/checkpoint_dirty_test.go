package serve_test

import (
	"net/http"
	"testing"

	"qgov/internal/serve"
)

// close shuts the harness down early (both halves are idempotent, so the
// registered cleanup is a no-op afterwards) — for tests that restart a
// server over the same checkpoint directory.
func (h *testServer) close() {
	h.ts.Close()
	_ = h.srv.Close()
}

// ckptCounters reads the write-amplification counters off /v1/metrics.
func ckptCounters(t *testing.T, h *testServer) (writes, skipped int64) {
	t.Helper()
	var m struct {
		Writes  int64 `json:"checkpoint_writes"`
		Skipped int64 `json:"checkpoint_skipped"`
	}
	if st := h.get("/v1/metrics", &m); st != http.StatusOK {
		t.Fatalf("metrics returned %d", st)
	}
	return m.Writes, m.Skipped
}

func createAndDecide(t *testing.T, h *testServer, id string, decides int) {
	t.Helper()
	if st := h.post("/v1/sessions", map[string]any{"id": id, "governor": "rtm", "seed": 1}, nil); st != http.StatusCreated {
		t.Fatalf("create %s returned %d", id, st)
	}
	decideN(t, h, id, decides)
}

func decideN(t *testing.T, h *testServer, id string, decides int) {
	t.Helper()
	obs := steadyObs()
	for i := 0; i < decides; i++ {
		obs.Epoch = i
		var resp struct {
			Decisions []decision `json:"decisions"`
		}
		if st := h.post("/v1/decide", map[string]any{
			"requests": []decideItem{{Session: id, Obs: obsFromGov(obs)}},
		}, &resp); st != http.StatusOK || resp.Decisions[0].Error != "" {
			t.Fatalf("decide %s: status %d %+v", id, st, resp.Decisions)
		}
	}
}

// The write-amplification fix: a checkpoint sweep writes a session's state
// only when a decide touched it since the last write. Idle sessions skip
// (and are counted as skipped); a new decide re-dirties exactly the
// sessions it touched; an explicit /checkpoint marks its session clean.
func TestCheckpointSweepSkipsCleanSessions(t *testing.T) {
	h := newTestServer(t, serve.Options{CheckpointDir: t.TempDir()})

	createAndDecide(t, h, "dirty-a", 3)
	createAndDecide(t, h, "dirty-b", 2)
	createAndDecide(t, h, "never-decided", 0)

	// First sweep: both decided sessions are dirty; the never-decided one
	// is skipped silently (nothing to persist — not write amplification).
	if n, err := h.srv.CheckpointAll(); err != nil || n != 2 {
		t.Fatalf("first sweep wrote %d (err %v), want 2", n, err)
	}
	if w, sk := ckptCounters(t, h); w != 2 || sk != 0 {
		t.Fatalf("after first sweep: writes=%d skipped=%d, want 2/0", w, sk)
	}

	// Nothing decided since: the sweep must write nothing and count both
	// sessions as skipped.
	if n, err := h.srv.CheckpointAll(); err != nil || n != 0 {
		t.Fatalf("idle sweep wrote %d (err %v), want 0", n, err)
	}
	if w, sk := ckptCounters(t, h); w != 2 || sk != 2 {
		t.Fatalf("after idle sweep: writes=%d skipped=%d, want 2/2", w, sk)
	}

	// One more decide on a single session re-dirties it alone.
	decideN(t, h, "dirty-a", 1)
	if n, err := h.srv.CheckpointAll(); err != nil || n != 1 {
		t.Fatalf("post-decide sweep wrote %d (err %v), want 1", n, err)
	}
	if w, sk := ckptCounters(t, h); w != 3 || sk != 3 {
		t.Fatalf("after post-decide sweep: writes=%d skipped=%d, want 3/3", w, sk)
	}

	// An explicit checkpoint writes unconditionally and marks the session
	// clean, so the next sweep skips it too.
	if st := h.post("/v1/sessions/dirty-b/checkpoint", map[string]any{}, nil); st != http.StatusOK {
		t.Fatalf("explicit checkpoint returned %d", st)
	}
	if w, _ := ckptCounters(t, h); w != 4 {
		t.Fatalf("explicit checkpoint not counted: writes=%d, want 4", w)
	}
	if n, err := h.srv.CheckpointAll(); err != nil || n != 0 {
		t.Fatalf("sweep after explicit checkpoint wrote %d (err %v), want 0", n, err)
	}
}

// A session re-created from its checkpoint must still checkpoint again
// after new decides: the dirty generation restarts with the session.
func TestCheckpointDirtyAfterWarmRestart(t *testing.T) {
	dir := t.TempDir()
	h := newTestServer(t, serve.Options{CheckpointDir: dir})
	createAndDecide(t, h, "wr", 2)
	if n, err := h.srv.CheckpointAll(); err != nil || n != 1 {
		t.Fatalf("sweep wrote %d (err %v), want 1", n, err)
	}
	h.close()

	h2 := newTestServer(t, serve.Options{CheckpointDir: dir})
	// Re-create under the same id: warm-starts from its checkpoint. With
	// no new decides the sweep must not re-write the state it loaded.
	createAndDecide(t, h2, "wr", 0)
	if n, err := h2.srv.CheckpointAll(); err != nil || n != 0 {
		t.Fatalf("sweep after warm restart wrote %d (err %v), want 0", n, err)
	}
	decideN(t, h2, "wr", 1)
	if n, err := h2.srv.CheckpointAll(); err != nil || n != 1 {
		t.Fatalf("sweep after new decide wrote %d (err %v), want 1", n, err)
	}
}
