package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"qgov/internal/registry"
	"qgov/internal/serve"
	"qgov/internal/sim"
	"qgov/internal/workload"
)

// trainAndPublish drives one rtm session on a server and publishes its
// frozen state to the registry under the given workload's fingerprint,
// returning the manifest and the frozen bytes.
func trainAndPublish(t *testing.T, h *testServer, reg *registry.Registry, id, wl string, seed int64, frames int) (registry.Manifest, json.RawMessage) {
	t.Helper()
	gen, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	tr := gen(seed, frames)
	if st := h.post("/v1/sessions", map[string]any{
		"id": id, "governor": "rtm", "workload": wl,
		"period_s": tr.RefTimeS, "seed": seed, "calibration_cc": tr.MaxPerFrame(),
	}, nil); st != http.StatusCreated {
		t.Fatalf("create %s returned %d", id, st)
	}
	h.driveOne(id, sim.NewSession(scenarioConfig(t, "rtm/"+wl+"/a15", seed, frames)))
	var ck struct {
		State json.RawMessage `json:"state"`
	}
	if st := h.post("/v1/sessions/"+id+"/checkpoint", map[string]any{}, &ck); st != http.StatusOK {
		t.Fatalf("checkpoint %s returned %d", id, st)
	}
	m, err := reg.Publish(registry.Fingerprint{
		Governor: "rtm", Workload: wl, Platform: "a15",
		Shape: registry.ShapeOf(ck.State),
	}, registry.Training{Frames: int64(frames)}, ck.State)
	if err != nil {
		t.Fatal(err)
	}
	return m, ck.State
}

// jsonEqual compares two JSON documents structurally (a warm-started
// learner re-freezes the same state modulo re-encoding).
func jsonEqual(t *testing.T, a, b json.RawMessage) bool {
	t.Helper()
	var av, bv any
	if err := json.Unmarshal(a, &av); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bv); err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(av, bv)
}

// Fleet-wide warm-start through the registry: a manifest id resolves
// exactly that checkpoint, "auto" resolves by fingerprint with exact-
// workload preference and a same-platform/different-workload fallback,
// and a fingerprint nothing matches starts cold rather than failing.
func TestWarmStartFromRegistry(t *testing.T) {
	const frames = 300
	blobs := registry.NewMem()
	reg := registry.New(blobs)
	h := newTestServer(t, serve.Options{Registry: reg})

	// Two published policies on a15: one trained on mpeg4, a longer one
	// on the football trace.
	mpeg, mpegState := trainAndPublish(t, h, reg, "t-mpeg", "mpeg4-30fps", 7, frames)
	football, footballState := trainAndPublish(t, h, reg, "t-foot", "h264-football", 7, 450)

	// Explicit manifest id: the session warm-starts from exactly that
	// state — an immediate re-freeze reproduces it.
	var info struct {
		WarmManifest string `json:"warm_manifest"`
	}
	if st := h.post("/v1/sessions", map[string]any{
		"id": "w-exact", "governor": "rtm", "seed": 7, "warm_start": mpeg.ID,
	}, &info); st != http.StatusCreated {
		t.Fatalf("warm_start by id returned %d", st)
	}
	if info.WarmManifest != mpeg.ID {
		t.Fatalf("warm_manifest = %q, want %q", info.WarmManifest, mpeg.ID)
	}
	var refrozen struct {
		State json.RawMessage `json:"state"`
	}
	if st := h.post("/v1/sessions/w-exact/checkpoint", map[string]any{}, &refrozen); st != http.StatusOK {
		t.Fatalf("checkpoint returned %d", st)
	}
	if !jsonEqual(t, mpegState, refrozen.State) {
		t.Error("session warm-started by manifest id does not carry the manifest's state")
	}

	// "auto" with a matching workload prefers the exact fingerprint even
	// though the football manifest trained longer.
	if st := h.post("/v1/sessions", map[string]any{
		"id": "w-auto", "governor": "rtm", "workload": "mpeg4-30fps", "seed": 7, "warm_start": "auto",
	}, &info); st != http.StatusCreated {
		t.Fatalf("warm_start auto returned %d", st)
	}
	if info.WarmManifest != mpeg.ID {
		t.Fatalf("auto resolved %q, want exact-workload manifest %q", info.WarmManifest, mpeg.ID)
	}

	// "auto" with an unseen workload falls back to the best same-platform
	// manifest (cross-workload transfer).
	if st := h.post("/v1/sessions", map[string]any{
		"id": "w-fallback", "governor": "rtm", "workload": "fft-32fps", "seed": 7, "warm_start": "auto",
	}, &info); st != http.StatusCreated {
		t.Fatalf("warm_start fallback returned %d", st)
	}
	if info.WarmManifest != football.ID && info.WarmManifest != mpeg.ID {
		t.Fatalf("fallback resolved %q, want a same-platform manifest", info.WarmManifest)
	}
	if st := h.post("/v1/sessions/w-fallback/checkpoint", map[string]any{}, &refrozen); st != http.StatusOK {
		t.Fatalf("checkpoint returned %d", st)
	}
	if !jsonEqual(t, footballState, refrozen.State) && !jsonEqual(t, mpegState, refrozen.State) {
		t.Error("fallback warm-start did not transfer a published policy")
	}

	// "auto" against a platform with no manifests starts cold, 201.
	var cold struct {
		WarmManifest string `json:"warm_manifest"`
	}
	if st := h.post("/v1/sessions", map[string]any{
		"id": "w-cold", "governor": "rtm", "platform": "a7", "seed": 7, "warm_start": "auto",
	}, &cold); st != http.StatusCreated {
		t.Fatalf("cold auto create returned %d", st)
	}
	if cold.WarmManifest != "" {
		t.Fatalf("cold create reports warm_manifest %q", cold.WarmManifest)
	}

	// An unknown manifest id is an error, not a silent cold start; a
	// malformed one is the caller's error, not a server fault.
	if st := h.post("/v1/sessions", map[string]any{
		"id": "w-miss", "governor": "rtm", "warm_start": "deadbeefdeadbeef",
	}, nil); st != http.StatusNotFound {
		t.Fatalf("unknown manifest returned %d, want 404", st)
	}
	if st := h.post("/v1/sessions", map[string]any{
		"id": "w-bad", "governor": "rtm", "warm_start": "bad key!",
	}, nil); st != http.StatusBadRequest {
		t.Fatalf("malformed manifest id returned %d, want 400", st)
	}
}

// A session re-created under its old id must resume its OWN checkpoint
// even when the create carries warm_start — the session's exact learnt
// state beats any published manifest, and "auto" in a steady-state
// create body must not swap it for a foreign policy. Inline state beats
// a manifest id given beside it: the manifest is neither loaded nor
// recorded.
func TestOwnCheckpointBeatsWarmStart(t *testing.T) {
	const frames = 300
	blobs := registry.NewMem()
	reg := registry.New(blobs)
	h := newTestServer(t, serve.Options{Checkpoints: registry.Checkpoints(blobs), Registry: reg})

	// A published manifest from a different trainer.
	_, _ = trainAndPublish(t, h, reg, "t-pub", "h264-football", 3, 450)

	// Train "own", freeze it, delete nothing — then re-create it with
	// warm_start auto: it must carry its own state forward.
	tr := workload.MPEG4At30(9, frames)
	if st := h.post("/v1/sessions", map[string]any{
		"id": "own", "governor": "rtm", "workload": "mpeg4-30fps",
		"period_s": tr.RefTimeS, "seed": 9, "calibration_cc": tr.MaxPerFrame(),
	}, nil); st != http.StatusCreated {
		t.Fatalf("create returned %d", st)
	}
	h.driveOne("own", sim.NewSession(scenarioConfig(t, "rtm/mpeg4-30fps/a15", 9, frames)))
	var frozen struct {
		State json.RawMessage `json:"state"`
	}
	if st := h.post("/v1/sessions/own/checkpoint", map[string]any{}, &frozen); st != http.StatusOK {
		t.Fatalf("checkpoint returned %d", st)
	}
	req, _ := http.NewRequest(http.MethodDelete, h.ts.URL+"/v1/sessions/own", nil)
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// DELETE GCs the checkpoint; put it back as the "restart" would have
	// left it (a server restart keeps checkpoints, it does not DELETE).
	if err := registry.Checkpoints(blobs).Save("own", frozen.State); err != nil {
		t.Fatal(err)
	}

	var info struct {
		WarmManifest string `json:"warm_manifest"`
	}
	if st := h.post("/v1/sessions", map[string]any{
		"id": "own", "governor": "rtm", "workload": "mpeg4-30fps",
		"period_s": tr.RefTimeS, "seed": 9, "warm_start": "auto",
	}, &info); st != http.StatusCreated {
		t.Fatalf("re-create returned %d", st)
	}
	if info.WarmManifest != "" {
		t.Fatalf("re-created session took manifest %q over its own checkpoint", info.WarmManifest)
	}
	var refrozen struct {
		State json.RawMessage `json:"state"`
	}
	if st := h.post("/v1/sessions/own/checkpoint", map[string]any{}, &refrozen); st != http.StatusOK {
		t.Fatalf("checkpoint returned %d", st)
	}
	if !jsonEqual(t, frozen.State, refrozen.State) {
		t.Error("re-created session did not resume its own checkpoint")
	}

	// Inline state + a manifest id: the inline state is what the session
	// learns from, and no manifest is reported.
	m, _ := trainAndPublish(t, h, reg, "t-other", "mpeg4-30fps", 4, frames)
	var inline struct {
		WarmManifest string `json:"warm_manifest"`
	}
	if st := h.post("/v1/sessions", map[string]any{
		"id": "inline", "governor": "rtm", "seed": 4,
		"state": frozen.State, "warm_start": m.ID,
	}, &inline); st != http.StatusCreated {
		t.Fatalf("create with inline state and a manifest id returned %d", st)
	}
	if inline.WarmManifest != "" {
		t.Fatalf("inline-state session reports warm_manifest %q", inline.WarmManifest)
	}
	if st := h.post("/v1/sessions/inline/checkpoint", map[string]any{}, &refrozen); st != http.StatusOK {
		t.Fatalf("checkpoint returned %d", st)
	}
	if !jsonEqual(t, frozen.State, refrozen.State) {
		t.Error("inline state did not win over the manifest id beside it")
	}
}

// warm_start without a configured registry must fail loudly.
func TestWarmStartNeedsRegistry(t *testing.T) {
	h := newTestServer(t, serve.Options{})
	if st := h.post("/v1/sessions", map[string]any{
		"id": "w0", "governor": "rtm", "warm_start": "auto",
	}, nil); st != http.StatusBadRequest {
		t.Fatalf("warm_start without registry returned %d, want 400", st)
	}
	// An unknown workload name on create is caught, registry or not.
	if st := h.post("/v1/sessions", map[string]any{
		"id": "w1", "governor": "rtm", "workload": "no-such-trace",
	}, nil); st != http.StatusBadRequest {
		t.Fatalf("bogus workload returned %d, want 400", st)
	}
}

// The registry-backed CheckpointStore carries sessions across server
// restarts exactly as the local-dir store does: a session re-created
// under its old id on a fresh server sharing the blob store resumes its
// learnt policy.
func TestRegistryCheckpointStoreSurvivesRestart(t *testing.T) {
	const frames = 300
	blobs := registry.NewMem()

	srv1 := serve.New(serve.Options{Checkpoints: registry.Checkpoints(blobs)})
	ts1 := httptest.NewServer(srv1.Handler())
	h1 := &testServer{t: t, srv: srv1, ts: ts1}
	tr := workload.MPEG4At30(9, frames)
	if st := h1.post("/v1/sessions", map[string]any{
		"id": "c0", "governor": "rtm", "period_s": tr.RefTimeS, "seed": 9,
		"calibration_cc": tr.MaxPerFrame(),
	}, nil); st != http.StatusCreated {
		t.Fatalf("create returned %d", st)
	}
	h1.driveOne("c0", sim.NewSession(scenarioConfig(t, "rtm/mpeg4-30fps/a15", 9, frames)))
	h1.ts.Close()
	if err := srv1.Close(); err != nil { // final sweep freezes c0 into the blob store
		t.Fatal(err)
	}
	frozen, err := registry.Checkpoints(blobs).Load("c0")
	if err != nil {
		t.Fatalf("final checkpoint missing from registry store: %v", err)
	}

	h2 := newTestServer(t, serve.Options{Checkpoints: registry.Checkpoints(blobs)})
	if st := h2.post("/v1/sessions", map[string]any{
		"id": "c0", "governor": "rtm", "period_s": tr.RefTimeS, "seed": 9,
	}, nil); st != http.StatusCreated {
		t.Fatalf("re-create returned %d", st)
	}
	var out struct {
		State json.RawMessage `json:"state"`
	}
	if st := h2.post("/v1/sessions/c0/checkpoint", map[string]any{}, &out); st != http.StatusOK {
		t.Fatalf("checkpoint returned %d", st)
	}
	if !jsonEqual(t, frozen, out.State) {
		t.Error("warm-started session does not reproduce its registry checkpoint")
	}
}
