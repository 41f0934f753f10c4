package registry_test

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"testing"

	"qgov/internal/registry"
	"qgov/internal/scenario"
	"qgov/internal/sessionstore"
	"qgov/internal/sim"
)

// stores builds one of each BlobStore implementation so every test runs
// against both.
func stores(t *testing.T) map[string]registry.BlobStore {
	t.Helper()
	dir, err := registry.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]registry.BlobStore{
		"mem": registry.NewMem(),
		"dir": dir,
	}
}

// Publish → lookup → byte-identical state, across both stores, for a
// spread of pseudo-random blobs: the registry's content addressing must
// hand back exactly the bytes published, dedupe identical publishes to
// one manifest id, and keep distinct fingerprints distinct.
func TestPublishLookupRoundTripProperty(t *testing.T) {
	for name, b := range stores(t) {
		t.Run(name, func(t *testing.T) {
			reg := registry.New(b)
			rng := rand.New(rand.NewSource(7))
			seen := map[string][]byte{}
			for i := 0; i < 50; i++ {
				state := make([]byte, 1+rng.Intn(4096))
				rng.Read(state)
				fp := registry.Fingerprint{
					Governor: fmt.Sprintf("g%d", rng.Intn(3)),
					Workload: fmt.Sprintf("w%d", rng.Intn(4)),
					Platform: fmt.Sprintf("p%d", rng.Intn(2)),
				}
				tr := registry.Training{Frames: int64(i), ConvergedFraction: rng.Float64()}
				m, err := reg.Publish(fp, tr, state)
				if err != nil {
					t.Fatal(err)
				}
				if m.Fingerprint != fp || m.Bytes != len(state) {
					t.Fatalf("manifest mangled: %+v", m)
				}
				// Idempotence: same fingerprint + same bytes → same id.
				m2, err := reg.Publish(fp, tr, state)
				if err != nil {
					t.Fatal(err)
				}
				if m2.ID != m.ID {
					t.Fatalf("re-publish changed id: %s vs %s", m2.ID, m.ID)
				}
				seen[m.ID] = append([]byte(nil), state...)
			}
			for id, want := range seen {
				got, err := reg.State(id)
				if err != nil {
					t.Fatalf("State(%s): %v", id, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("State(%s) returned %d bytes, want %d — content mangled", id, len(got), len(want))
				}
				m, err := reg.Manifest(id)
				if err != nil {
					t.Fatal(err)
				}
				if m.ID != id {
					t.Fatalf("Manifest(%s) carries id %s", id, m.ID)
				}
			}
			all, err := reg.Manifests()
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != len(seen) {
				t.Fatalf("Manifests lists %d entries, want %d", len(all), len(seen))
			}
		})
	}
}

// The full restore loop: train a learner through the scenario registry,
// publish its frozen state, fetch it back by manifest id and warm-start
// a fresh governor — re-freezing must reproduce the published bytes
// exactly (nothing lost or mutated through the registry).
func TestPublishRestoreIsByteIdentical(t *testing.T) {
	sc, err := scenario.Get("rtm/mpeg4-30fps/a15")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sc.Session(11, 400)
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		s.Step(s.Decide())
	}
	var frozen bytes.Buffer
	if err := scenario.Freeze(s.Governor(), &frozen); err != nil {
		t.Fatal(err)
	}

	reg := registry.New(registry.NewMem())
	fp := registry.Fingerprint{
		Governor: "rtm", Workload: "mpeg4-30fps", Platform: "a15",
		Shape: registry.ShapeOf(frozen.Bytes()),
	}
	if fp.Shape == "" {
		t.Fatal("ShapeOf failed to summarise an rtm checkpoint")
	}
	m, err := reg.Publish(fp, registry.Training{Frames: 400}, frozen.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	state, err := reg.State(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.ConfigWarm(11, 400, bytes.NewReader(state))
	if err != nil {
		t.Fatal(err)
	}
	_ = sim.NewSession(cfg) // Reset applies the staged checkpoint
	var refrozen bytes.Buffer
	if err := scenario.Freeze(cfg.Governor, &refrozen); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frozen.Bytes(), refrozen.Bytes()) {
		t.Fatal("publish → State → warm-start → freeze is not the identity")
	}
}

// Nearest's two tiers and its ranking: exact fingerprint beats any
// fallback however well-trained, the fallback tier admits only same-
// platform/same-governor manifests, and within a tier candidates rank
// by converged fraction, then frames, then id.
func TestNearestFallbackOrdering(t *testing.T) {
	reg := registry.New(registry.NewMem())
	pub := func(gov, wl, plat string, frames int64, conv float64, tag byte) registry.Manifest {
		t.Helper()
		m, err := reg.Publish(
			registry.Fingerprint{Governor: gov, Workload: wl, Platform: plat},
			registry.Training{Frames: frames, ConvergedFraction: conv},
			[]byte{tag}, // distinct content → distinct manifests
		)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	weakExact := pub("rtm", "mpeg4-30fps", "a15", 100, 0.2, 1)
	strongOther := pub("rtm", "h264-football", "a15", 5000, 0.99, 2)
	weakOther := pub("rtm", "fft-32fps", "a15", 50, 0.1, 3)
	pub("rtm", "mpeg4-30fps", "a7", 9000, 1.0, 4)    // wrong platform
	pub("mldtm", "mpeg4-30fps", "a15", 9000, 1.0, 5) // wrong governor

	// Exact tier wins over a much better-trained fallback.
	m, ok, err := reg.Nearest(registry.Fingerprint{Governor: "rtm", Workload: "mpeg4-30fps", Platform: "a15"})
	if err != nil || !ok {
		t.Fatalf("Nearest: ok=%v err=%v", ok, err)
	}
	if m.ID != weakExact.ID {
		t.Fatalf("exact tier lost to fallback: got %s, want %s", m.ID, weakExact.ID)
	}

	// No exact match: the best same-platform manifest wins, not the weak one.
	m, ok, err = reg.Nearest(registry.Fingerprint{Governor: "rtm", Workload: "parsec-x264", Platform: "a15"})
	if err != nil || !ok {
		t.Fatalf("Nearest fallback: ok=%v err=%v", ok, err)
	}
	if m.ID != strongOther.ID {
		t.Fatalf("fallback ranking: got %s, want best-converged %s (not %s)", m.ID, strongOther.ID, weakOther.ID)
	}

	// Empty workload skips the exact tier and still resolves.
	m, ok, err = reg.Nearest(registry.Fingerprint{Governor: "rtm", Platform: "a15"})
	if err != nil || !ok || m.ID != strongOther.ID {
		t.Fatalf("workload-free Nearest: got %s ok=%v err=%v", m.ID, ok, err)
	}

	// Nothing on the wanted platform at all.
	if _, ok, err = reg.Nearest(registry.Fingerprint{Governor: "rtm", Platform: "a15-membound"}); err != nil || ok {
		t.Fatalf("Nearest matched across platforms: ok=%v err=%v", ok, err)
	}

	// Equal training: the tie breaks deterministically by id.
	a := pub("updrl", "w", "a15", 10, 0.5, 6)
	b := pub("updrl", "w2", "a15", 10, 0.5, 7)
	lo := a.ID
	if b.ID < lo {
		lo = b.ID
	}
	m, ok, err = reg.Nearest(registry.Fingerprint{Governor: "updrl", Workload: "zz", Platform: "a15"})
	if err != nil || !ok || m.ID != lo {
		t.Fatalf("tie-break: got %s, want %s", m.ID, lo)
	}
}

// The registry-backed CheckpointStore must satisfy the same contract as
// sessionstore.Dir: save/load/list/delete with fs.ErrNotExist on absent
// ids, across both blob stores.
func TestCheckpointsAdapterContract(t *testing.T) {
	for name, b := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var cs sessionstore.CheckpointStore = registry.Checkpoints(b)
			if _, err := cs.Load("ghost"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Load of absent id: %v", err)
			}
			if err := cs.Save("c0", []byte("state-0")); err != nil {
				t.Fatal(err)
			}
			if err := cs.Save("c1", []byte("state-1")); err != nil {
				t.Fatal(err)
			}
			if err := cs.Save("c0", []byte("state-0b")); err != nil { // replace
				t.Fatal(err)
			}
			got, err := cs.Load("c0")
			if err != nil || string(got) != "state-0b" {
				t.Fatalf("Load(c0) = %q, %v", got, err)
			}
			ids, err := cs.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 2 || ids[0] != "c0" || ids[1] != "c1" {
				t.Fatalf("List = %v", ids)
			}
			if err := cs.Delete("c0"); err != nil {
				t.Fatal(err)
			}
			if err := cs.Delete("c0"); err != nil { // idempotent
				t.Fatal(err)
			}
			if _, err := cs.Load("c0"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Load after delete: %v", err)
			}

			// Session checkpoints must not leak into the manifest index.
			reg := registry.New(b)
			ms, err := reg.Manifests()
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) != 0 {
				t.Fatalf("session checkpoints leaked into manifests: %+v", ms)
			}
		})
	}
}

// Save must not retain the caller's bytes: the checkpoint sweep reuses one
// encode buffer for every session, so a store keeping a reference would
// hand back whatever was encoded into the buffer next.
func TestCheckpointStoreSaveDoesNotRetain(t *testing.T) {
	dir, err := sessionstore.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	all := map[string]sessionstore.CheckpointStore{"sessionstore-dir": dir}
	for name, b := range stores(t) {
		all["registry-"+name] = registry.Checkpoints(b)
	}
	for name, cs := range all {
		t.Run(name, func(t *testing.T) {
			buf := []byte(`{"kind":"rtm","state":1}`)
			want := string(buf)
			if err := cs.Save("s0", buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, bytes.Repeat([]byte("x"), len(buf)))
			got, err := cs.Load("s0")
			if err != nil || string(got) != want {
				t.Fatalf("Load after the caller overwrote its buffer = %q, %v; want %q", got, err, want)
			}
		})
	}
}

// Key hygiene: traversal-shaped and malformed keys must be rejected by
// both stores before they touch storage.
func TestBlobKeyValidation(t *testing.T) {
	for name, b := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for _, key := range []string{"", "..", "a/../b", "a//b", "/a", "a/", "a\x00b", "säge"} {
				if err := b.Put(key, []byte("x")); err == nil {
					t.Errorf("Put accepted illegal key %q", key)
				}
				if _, err := b.Get(key); err == nil {
					t.Errorf("Get accepted illegal key %q", key)
				}
			}
			// Legal nested keys work.
			if err := b.Put("a/b/c.state", []byte("x")); err != nil {
				t.Fatal(err)
			}
			keys, err := b.List("a/")
			if err != nil || len(keys) != 1 || keys[0] != "a/b/c.state" {
				t.Fatalf("List(a/) = %v, %v", keys, err)
			}
		})
	}
}

// Corrupting a content-addressed blob must surface at State as a
// checksum failure, never as silently poisoned learning state.
func TestStateVerifiesChecksum(t *testing.T) {
	b := registry.NewMem()
	reg := registry.New(b)
	m, err := reg.Publish(
		registry.Fingerprint{Governor: "rtm", Workload: "w", Platform: "a15"},
		registry.Training{}, []byte("learnt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("blob/"+m.BlobSHA256, []byte("corrupt")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.State(m.ID); err == nil {
		t.Fatal("State returned corrupted bytes without error")
	}
}

// countingStore wraps a BlobStore, counting Gets — the probe for the
// StateOf memo.
type countingStore struct {
	registry.BlobStore
	gets int
}

func (c *countingStore) Get(key string) ([]byte, error) {
	c.gets++
	return c.BlobStore.Get(key)
}

// A warm-start storm fetches the same manifest's state over and over;
// StateOf must pay the blob read and checksum once and answer every
// repeat from its memo. A failed (corrupted) read must NOT be memoised.
func TestStateOfMemoisesBlobReads(t *testing.T) {
	cs := &countingStore{BlobStore: registry.NewMem()}
	reg := registry.New(cs)
	m, err := reg.Publish(
		registry.Fingerprint{Governor: "rtm", Workload: "w", Platform: "a15"},
		registry.Training{}, []byte("learnt state"))
	if err != nil {
		t.Fatal(err)
	}

	cs.gets = 0
	first, err := reg.StateOf(m)
	if err != nil {
		t.Fatal(err)
	}
	if cs.gets != 1 {
		t.Fatalf("first StateOf made %d blob reads, want 1", cs.gets)
	}
	for i := 0; i < 10; i++ {
		state, err := reg.StateOf(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(state, first) {
			t.Fatal("memoised StateOf returned different bytes")
		}
	}
	if cs.gets != 1 {
		t.Fatalf("10 repeat StateOf calls made %d extra blob reads, want 0", cs.gets-1)
	}

	// A corrupt blob errors on every read: the failure path must bypass
	// the memo entirely.
	bad, err := reg.Publish(
		registry.Fingerprint{Governor: "rtm", Workload: "w2", Platform: "a15"},
		registry.Training{}, []byte("other state"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.BlobStore.Put("blob/"+bad.BlobSHA256, []byte("corrupt")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := reg.StateOf(bad); err == nil {
			t.Fatal("StateOf returned corrupted bytes without error")
		}
	}
}
