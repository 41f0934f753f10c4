// Package ring is a consistent-hash ring mapping session ids to the
// replica that owns them — the placement function of a sharded rtmd
// fleet. Each replica is hashed onto the ring at VirtualNodes positions
// (virtual nodes smooth the per-replica share toward 1/N); a key belongs
// to the first replica position at or clockwise after the key's own
// hash. Placement is a pure function of the member set: every router
// holding the same members computes the same owner for every key, with
// no coordination.
//
// The property that makes the ring the right structure for a session
// fleet is bounded movement: a ring built without one of N replicas
// reassigns only the keys that replica owned (≈1/N of them, < 2/N with
// the default virtual-node count — the ring tests enforce the bound)
// and moves no key between two surviving replicas; a ring with one more
// replica steals only the keys the newcomer now owns. A modulo hash
// would reshuffle nearly everything. Resharding a fleet is a restart
// over a new member list, so this bounds how many sessions re-create on
// a new owner.
//
// A Ring is not internally locked: Owner is safe for any number of
// concurrent readers, but Add must be serialised against readers by the
// caller (a router builds its ring once, before serving).
package ring

import (
	"sort"

	"qgov/internal/strhash"
)

// DefaultVirtualNodes is the vnode count used when New is given zero.
// 128 positions per replica keeps the largest/smallest owner share
// within ~2x of each other at small N, which is what bounds movement
// under 2/N when a replica leaves.
const DefaultVirtualNodes = 128

// Ring places string keys on named members.
type Ring struct {
	vnodes  int
	members []string // sorted; the authoritative membership
	hashes  []uint64 // sorted vnode positions
	owners  []string // owners[i] owns hashes[i]
}

// New builds a ring with the given virtual-node count (<= 0 selects
// DefaultVirtualNodes) over the given members. Duplicate members are
// kept once.
func New(vnodes int, members ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{vnodes: vnodes}
	for _, m := range members {
		r.Add(m)
	}
	return r
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Members returns the member set, sorted. The slice is a copy.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Has reports whether the member is on the ring.
func (r *Ring) Has(member string) bool {
	i := sort.SearchStrings(r.members, member)
	return i < len(r.members) && r.members[i] == member
}

// Add places a member on the ring. It reports whether the member was new.
func (r *Ring) Add(member string) bool {
	if r.Has(member) {
		return false
	}
	i := sort.SearchStrings(r.members, member)
	r.members = append(r.members, "")
	copy(r.members[i+1:], r.members[i:])
	r.members[i] = member
	r.rebuild()
	return true
}

// rebuild recomputes the vnode positions from the member set. Placement
// depends only on the (sorted) membership, never on insertion order.
func (r *Ring) rebuild() {
	n := len(r.members) * r.vnodes
	r.hashes = r.hashes[:0]
	r.owners = r.owners[:0]
	if cap(r.hashes) < n {
		r.hashes = make([]uint64, 0, n)
		r.owners = make([]string, 0, n)
	}
	for _, m := range r.members {
		h := strhash.AddString(strhash.Seed, m)
		for v := 0; v < r.vnodes; v++ {
			// Chain the vnode index into the member hash, then mix: FNV
			// alone leaves different members' vnode sequences affinely
			// related (the shares come out wildly uneven); the finalizer
			// decorrelates them.
			r.hashes = append(r.hashes, strhash.Mix(strhash.AddU32(h, uint32(v))))
			r.owners = append(r.owners, m)
		}
	}
	sort.Sort((*ringSlice)(r))
	// Identical positions from different members would make placement
	// depend on sort stability; break ties by owner so the winner is
	// deterministic, then drop the shadowed duplicates.
	w := 0
	for i := range r.hashes {
		if i > 0 && r.hashes[i] == r.hashes[w-1] {
			continue
		}
		r.hashes[w], r.owners[w] = r.hashes[i], r.owners[i]
		w++
	}
	r.hashes, r.owners = r.hashes[:w], r.owners[:w]
}

// ringSlice sorts positions with owner tiebreak.
type ringSlice Ring

func (s *ringSlice) Len() int { return len(s.hashes) }
func (s *ringSlice) Less(i, j int) bool {
	if s.hashes[i] != s.hashes[j] {
		return s.hashes[i] < s.hashes[j]
	}
	return s.owners[i] < s.owners[j]
}
func (s *ringSlice) Swap(i, j int) {
	s.hashes[i], s.hashes[j] = s.hashes[j], s.hashes[i]
	s.owners[i], s.owners[j] = s.owners[j], s.owners[i]
}

// Owner returns the member owning the key, and false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.hashes) == 0 {
		return "", false
	}
	return r.owners[r.search(strhash.String(key))], true
}

// OwnerBytes is Owner for a byte-slice key; it hashes identically to the
// string form and allocates nothing, for the binary-transport route path.
func (r *Ring) OwnerBytes(key []byte) (string, bool) {
	if len(r.hashes) == 0 {
		return "", false
	}
	return r.owners[r.search(strhash.Bytes(key))], true
}

// search finds the first position at or clockwise after h.
func (r *Ring) search(h uint64) int {
	lo, hi := 0, len(r.hashes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.hashes[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.hashes) {
		return 0 // wrap past the last position
	}
	return lo
}
