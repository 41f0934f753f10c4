// Package sessionstore holds the serving layer's session state: a
// concurrent keyed Store for live sessions and a CheckpointStore for
// their frozen learning state.
//
// The Store interface exists because the session map is the one shared
// structure every decision crosses. A single RWMutex around one map —
// the shape serve.Server grew up with — serialises the lookup of every
// decide in the fleet through one cache line; the sharded implementation
// stripes the map across independently locked shards so lookups for
// different sessions contend only when they hash to the same stripe.
// The interface also decouples the serving layer from the map's home:
// an in-process store today, a path to an external shared store later.
//
// Values are a type parameter rather than an interface: the serve layer
// stores its unexported *session directly, with no boxing on the decide
// hot path.
package sessionstore

import (
	"sync"

	"qgov/internal/strhash"
)

// Store is a concurrent map of session id → V. Put is put-if-absent —
// session creation must atomically detect duplicates — and Delete
// returns the removed value so callers can release resources it owns.
type Store[V any] interface {
	// Get returns the value for id.
	Get(id string) (V, bool)
	// GetBytes is Get with a byte-slice key. Implementations must not
	// retain id, so callers can pass decode buffers; the sharded store
	// performs no conversion allocation (the binary transport's
	// decode→decide path stays allocation-free).
	GetBytes(id []byte) (V, bool)
	// Put stores v under id if the id is free and reports whether it did.
	Put(id string, v V) bool
	// Delete removes id, returning the removed value.
	Delete(id string) (V, bool)
	// Range calls f for every entry until f returns false. The iteration
	// order is unspecified and entries added or removed concurrently may
	// or may not be seen; f must not call back into the store.
	Range(f func(id string, v V) bool)
	// Len returns the entry count.
	Len() int
}

// defaultShards is the stripe count used when NewSharded is given zero:
// comfortably above the core count of the machines this serves on, so
// two concurrent decides rarely queue on the same stripe.
const defaultShards = 64

// Sharded is the mutex-striped in-process Store: ids hash across
// power-of-two shards, each an independently RW-locked map.
type Sharded[V any] struct {
	shards []shard[V]
	mask   uint64
}

type shard[V any] struct {
	mu sync.RWMutex // 24 bytes
	m  map[string]V // 8 bytes
	// hiWater is the peak entry count since the map was last rebuilt. Go
	// maps never release bucket arrays, so after a delete storm a shard
	// would otherwise hold memory sized for its peak forever; Delete
	// rebuilds the map when occupancy falls far enough below this mark.
	hiWater int // 8 bytes
	// Pad the shard to 128 bytes so no two shards' hot fields share a
	// 64-byte cache line whatever the slice's base alignment —
	// neighbouring shard locks would otherwise false-share under write
	// contention.
	_ [88]byte
}

// Shrink thresholds: a shard map is rebuilt at its live size when entries
// fall below 1/shrinkFactor of the high-water mark, but only once the mark
// is at least shrinkMinHiWater — below that the retained bucket arrays are
// noise and a rebuild is pure overhead. The rebuild copies fewer than
// hiWater/shrinkFactor entries and is triggered only after at least
// (1-1/shrinkFactor)·hiWater deletes, so the cost is O(1) amortised per
// delete, paid under the same stripe lock the delete already holds.
const (
	shrinkFactor     = 4
	shrinkMinHiWater = 256
)

// NewSharded builds a store with the given shard count rounded up to a
// power of two; <= 0 selects the default.
func NewSharded[V any](shards int) *Sharded[V] {
	if shards <= 0 {
		shards = defaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Sharded[V]{shards: make([]shard[V], n), mask: uint64(n - 1)}
	for i := range s.shards {
		s.shards[i].m = make(map[string]V)
	}
	return s
}

func (s *Sharded[V]) shardFor(h uint64) *shard[V] {
	return &s.shards[h&s.mask]
}

// Get implements Store.
func (s *Sharded[V]) Get(id string) (V, bool) {
	sh := s.shardFor(hashString(id))
	sh.mu.RLock()
	v, ok := sh.m[id]
	sh.mu.RUnlock()
	return v, ok
}

// GetBytes implements Store. The map index compiles to a no-copy lookup.
func (s *Sharded[V]) GetBytes(id []byte) (V, bool) {
	sh := s.shardFor(hashBytes(id))
	sh.mu.RLock()
	v, ok := sh.m[string(id)]
	sh.mu.RUnlock()
	return v, ok
}

// Put implements Store (put-if-absent).
func (s *Sharded[V]) Put(id string, v V) bool {
	sh := s.shardFor(hashString(id))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.m[id]; dup {
		return false
	}
	sh.m[id] = v
	if n := len(sh.m); n > sh.hiWater {
		sh.hiWater = n
	}
	return true
}

// Delete implements Store.
func (s *Sharded[V]) Delete(id string) (V, bool) {
	sh := s.shardFor(hashString(id))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
		sh.maybeShrinkLocked()
	}
	return v, ok
}

// maybeShrinkLocked rebuilds the shard map at its live size when occupancy
// has fallen far below the high-water mark. Caller holds sh.mu.
func (sh *shard[V]) maybeShrinkLocked() {
	if sh.hiWater < shrinkMinHiWater || len(sh.m)*shrinkFactor >= sh.hiWater {
		return
	}
	m := make(map[string]V, len(sh.m))
	for k, v := range sh.m {
		m[k] = v
	}
	sh.m = m
	// Reset the mark to the rebuilt size so continued deletion keeps
	// shrinking instead of comparing against the old peak forever.
	sh.hiWater = len(m)
}

// Range implements Store: each shard is walked under its read lock, so
// f runs with one stripe locked — it must be quick and must not touch
// the store (a Put or Delete from f deadlocks on the same stripe).
func (s *Sharded[V]) Range(f func(id string, v V) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, v := range sh.m {
			if !f(id, v) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// Len implements Store. The count is a sum of per-shard snapshots —
// exact when quiescent, approximate under concurrent mutation.
func (s *Sharded[V]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

func hashString(s string) uint64 { return strhash.String(s) }

func hashBytes(b []byte) uint64 { return strhash.Bytes(b) }
