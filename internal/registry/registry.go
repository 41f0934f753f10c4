// Package registry is the content-addressed checkpoint registry: frozen
// governor learning state published as immutable blobs under a manifest
// index keyed by scenario fingerprint (governor, workload, platform,
// state-space shape) and training metadata (frames trained, converged-
// state fraction). It is the storage half of the paper's transfer claim
// (via its ref [12], Shafik et al., TCAD'16): a Q-table trained on one
// workload warm-starts another, so a fleet that keeps its trained
// policies in a shared registry amortises exploration across every
// session it will ever serve.
//
// Everything lives behind the BlobStore seam. A Registry over one shared
// store gives a replica fleet three things at once:
//
//   - published manifests: train anywhere, Publish once, and any session
//     create carrying warm_start resolves the nearest manifest
//     (Nearest: exact fingerprint first, then same-platform/different-
//     workload — the cross-workload transfer fallback);
//   - content addressing: the blob key is the state's SHA-256 and the
//     manifest id is derived from fingerprint + content, so publishing
//     the same state twice is idempotent and a fetched blob can always
//     be verified against its manifest;
//   - session checkpoints: Checkpoints adapts the same store to
//     sessionstore.CheckpointStore, so router replicas share session
//     state through the registry instead of a common directory, and a
//     restart reshard works across machines.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"sync"
)

// Fingerprint names the scenario a checkpoint was trained under — the
// match key of warm-start resolution. Governor, Workload and Platform
// are registry names (the scenario registry's segments); Shape is the
// state-space shape of the frozen tables (see ShapeOf), carried so an
// operator can see at a glance why a manifest does or does not fit a
// platform.
type Fingerprint struct {
	Governor string `json:"governor"`
	Workload string `json:"workload"`
	Platform string `json:"platform"`
	Shape    string `json:"shape,omitempty"`
}

// Key renders the fingerprint in scenario-name form.
func (f Fingerprint) Key() string {
	return f.Governor + "/" + f.Workload + "/" + f.Platform
}

// Training is the metadata a manifest carries about how much learning
// the checkpoint embodies — what Nearest ranks candidates by.
type Training struct {
	// Frames is the number of decision epochs the state was trained for.
	Frames int64 `json:"frames"`
	// ConvergedFraction is the fraction of states whose greedy action had
	// settled when the state was frozen (governor.ExplorationStats).
	ConvergedFraction float64 `json:"converged_fraction"`
}

// Manifest indexes one published checkpoint.
type Manifest struct {
	// ID is the manifest's content address: a hash of fingerprint and
	// blob checksum, so identical publishes collapse to one manifest.
	ID          string      `json:"id"`
	Fingerprint Fingerprint `json:"fingerprint"`
	Training    Training    `json:"training"`
	// BlobSHA256 is the hex SHA-256 of the checkpoint state, which is
	// also its blob key under blob/.
	BlobSHA256 string `json:"blob_sha256"`
	// Bytes is the checkpoint's size.
	Bytes int `json:"bytes"`
}

// Key prefixes: manifests, content-addressed state blobs, and session
// checkpoints share one BlobStore without colliding.
const (
	manifestPrefix = "manifest/"
	blobPrefix     = "blob/"
	sessionPrefix  = "session/"
)

// Registry is the manifest index over a BlobStore.
type Registry struct {
	b BlobStore

	// State-blob memo for StateOf. A warm-start storm resolves the same
	// handful of manifests over and over; without the memo every create
	// pays a blob read plus a SHA-256 pass over ~45 KB of state. The
	// cache is sound because blobs are content-addressed (the key IS the
	// checksum, so a hit can never be stale) and verified on first read.
	// Entries evict in insertion order once the cache holds stateMemoCap
	// blobs — the working set is "manifests the fleet warm-starts from",
	// which is small.
	memoMu   sync.Mutex
	memo     map[string][]byte
	memoFIFO []string
}

// stateMemoCap bounds the StateOf memo; at the ~45 KB checkpoints the
// paper's platforms produce this is ~1.4 MB, paid once per process.
const stateMemoCap = 32

// New builds a registry over the given store.
func New(b BlobStore) *Registry { return &Registry{b: b, memo: make(map[string][]byte)} }

// Blobs returns the underlying store (the seam the session-checkpoint
// adapter and the CLI wiring share).
func (r *Registry) Blobs() BlobStore { return r.b }

// manifestID derives the content address of a manifest: the first 16
// hex digits of SHA-256 over the fingerprint and the blob checksum.
// Training metadata is deliberately excluded so re-publishing
// byte-identical state under the same fingerprint updates its manifest
// in place. A retrain that changes the state bytes publishes a NEW
// manifest beside the old one — the registry is append-only, and
// Nearest ranks by converged fraction before frames, so a
// better-converged old manifest keeps winning until it is pruned
// (manifest pruning is an open ROADMAP item).
func manifestID(fp Fingerprint, blobSHA string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%s", fp.Governor, fp.Workload, fp.Platform, fp.Shape, blobSHA)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Publish stores the checkpoint state under its content address and
// indexes it with a manifest. Publishing identical state under an
// identical fingerprint is idempotent and returns the same manifest id.
func (r *Registry) Publish(fp Fingerprint, tr Training, state []byte) (Manifest, error) {
	if fp.Governor == "" || fp.Workload == "" || fp.Platform == "" {
		return Manifest{}, fmt.Errorf("registry: fingerprint %+v is incomplete (governor, workload and platform are required)", fp)
	}
	if len(state) == 0 {
		return Manifest{}, fmt.Errorf("registry: refusing to publish empty state for %s", fp.Key())
	}
	sum := sha256.Sum256(state)
	sha := hex.EncodeToString(sum[:])
	m := Manifest{
		ID:          manifestID(fp, sha),
		Fingerprint: fp,
		Training:    tr,
		BlobSHA256:  sha,
		Bytes:       len(state),
	}
	if err := r.b.Put(blobPrefix+sha, state); err != nil {
		return Manifest{}, fmt.Errorf("registry: publishing %s blob: %w", fp.Key(), err)
	}
	doc, err := json.Marshal(m)
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: encoding manifest: %w", err)
	}
	// The blob lands before the manifest, so a reader that sees the
	// manifest always finds the state it points at.
	if err := r.b.Put(manifestPrefix+m.ID, doc); err != nil {
		return Manifest{}, fmt.Errorf("registry: publishing %s manifest: %w", fp.Key(), err)
	}
	return m, nil
}

// Manifest fetches one manifest by id. A missing id returns an error
// satisfying errors.Is(err, fs.ErrNotExist).
func (r *Registry) Manifest(id string) (Manifest, error) {
	doc, err := r.b.Get(manifestPrefix + id)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(doc, &m); err != nil {
		return Manifest{}, fmt.Errorf("registry: manifest %s is corrupt: %w", id, err)
	}
	return m, nil
}

// State fetches the checkpoint state a manifest id points at.
func (r *Registry) State(id string) ([]byte, error) {
	m, err := r.Manifest(id)
	if err != nil {
		return nil, err
	}
	return r.StateOf(m)
}

// StateOf fetches the checkpoint state of an already-resolved manifest
// (one blob read — callers coming from Nearest or Manifest skip the
// redundant index round trip) and verifies it against the manifest's
// checksum — a content-addressed read can never hand back silently
// corrupted learning state. Repeated fetches of the same blob answer
// from an in-process memo without touching the store; the returned
// bytes are shared and MUST be treated as read-only (every caller
// decodes them, none writes).
func (r *Registry) StateOf(m Manifest) ([]byte, error) {
	r.memoMu.Lock()
	if state, ok := r.memo[m.BlobSHA256]; ok {
		r.memoMu.Unlock()
		return state, nil
	}
	r.memoMu.Unlock()

	state, err := r.b.Get(blobPrefix + m.BlobSHA256)
	if err != nil {
		return nil, fmt.Errorf("registry: manifest %s: %w", m.ID, err)
	}
	sum := sha256.Sum256(state)
	if hex.EncodeToString(sum[:]) != m.BlobSHA256 {
		return nil, fmt.Errorf("registry: blob for manifest %s fails its checksum", m.ID)
	}

	r.memoMu.Lock()
	if _, ok := r.memo[m.BlobSHA256]; !ok {
		for len(r.memoFIFO) >= stateMemoCap {
			delete(r.memo, r.memoFIFO[0])
			r.memoFIFO = r.memoFIFO[1:]
		}
		r.memo[m.BlobSHA256] = state
		r.memoFIFO = append(r.memoFIFO, m.BlobSHA256)
	}
	r.memoMu.Unlock()
	return state, nil
}

// Manifests lists every manifest, sorted by id. A manifest that
// vanishes between List and Get raced a delete and is skipped, as is a
// corrupt document (Put is atomic, so that is data corruption, and one
// bad manifest must not brick resolution for the whole fleet); any
// other storage error propagates — a transient outage must not read as
// "empty registry" and silently cold-start every warm_start create.
func (r *Registry) Manifests() ([]Manifest, error) {
	keys, err := r.b.List(manifestPrefix)
	if err != nil {
		return nil, err
	}
	out := make([]Manifest, 0, len(keys))
	for _, k := range keys {
		doc, err := r.b.Get(k)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // raced with a delete
			}
			return nil, fmt.Errorf("registry: reading %s: %w", k, err)
		}
		var m Manifest
		if json.Unmarshal(doc, &m) != nil {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Nearest resolves the best manifest for the wanted fingerprint in two
// tiers: exact (governor, workload, platform all equal) first, then
// same-platform/different-workload (the cross-workload transfer
// fallback — tables trained on the same governor and operating-point
// ladder carry over; ref [12]'s claim). Shape is metadata, not a match
// key: platform + governor fix the table dimensions. Within a tier
// candidates rank by converged fraction, then frames trained, then id,
// so resolution is deterministic across the fleet. A want with an empty
// Workload skips the exact tier.
//
// Nearest reads the full manifest index — one Get per manifest. That is
// the right trade at the scale manifests exist at (policies are
// published per workload × platform, not per session); if a deployment
// ever accumulates manifests at session scale, a governor/platform
// prefix layout for manifest keys is the upgrade path.
func (r *Registry) Nearest(want Fingerprint) (Manifest, bool, error) {
	all, err := r.Manifests()
	if err != nil {
		return Manifest{}, false, err
	}
	better := func(a, b Manifest) bool {
		if a.Training.ConvergedFraction != b.Training.ConvergedFraction {
			return a.Training.ConvergedFraction > b.Training.ConvergedFraction
		}
		if a.Training.Frames != b.Training.Frames {
			return a.Training.Frames > b.Training.Frames
		}
		return a.ID < b.ID
	}
	var exact, fallback *Manifest
	for i := range all {
		m := all[i]
		if m.Fingerprint.Governor != want.Governor || m.Fingerprint.Platform != want.Platform {
			continue
		}
		if want.Workload != "" && m.Fingerprint.Workload == want.Workload {
			if exact == nil || better(m, *exact) {
				exact = &all[i]
			}
			continue
		}
		if fallback == nil || better(m, *fallback) {
			fallback = &all[i]
		}
	}
	switch {
	case exact != nil:
		return *exact, true, nil
	case fallback != nil:
		return *fallback, true, nil
	default:
		return Manifest{}, false, nil
	}
}

// ShapeOf summarises the state-space shape of a checkpoint envelope —
// the dimensions a manifest records so an operator can read why a
// checkpoint fits (or cannot fit) a platform. It understands the two
// envelope families in the program (the RTM family's tables and the
// ML-DTM's per-core lattice) and returns "" for anything else; shape is
// descriptive metadata, so unknown is fine.
func ShapeOf(state []byte) string {
	var env struct {
		Kind   string `json:"kind"`
		Tables []struct {
			States  int `json:"states"`
			Actions int `json:"actions"`
		} `json:"tables"`
		Cores   int `json:"cores"`
		Bands   int `json:"bands"`
		Actions int `json:"actions"`
	}
	if json.Unmarshal(state, &env) != nil {
		return ""
	}
	switch {
	case len(env.Tables) > 0:
		return fmt.Sprintf("tables=%d,states=%d,actions=%d",
			len(env.Tables), env.Tables[0].States, env.Tables[0].Actions)
	case env.Cores > 0 && env.Bands > 0:
		return fmt.Sprintf("cores=%d,bands=%d,actions=%d", env.Cores, env.Bands, env.Actions)
	default:
		return ""
	}
}
