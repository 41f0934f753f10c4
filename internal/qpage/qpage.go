// Package qpage implements paged numeric value tables with copy-on-write
// sharing through a content-interned page pool.
//
// The serving tier holds one Q-table (or one per core) per live session.
// The tables are identical by construction across sessions — every
// cold-started session begins from the same uniform InitQ table, and every
// session warm-started from a given registry manifest begins from the same
// trained values — yet each session used to carry its own full deep copy
// (~6.8 KB per 25×19 table). This package splits a table into fixed-size
// pages and keeps one refcounted copy of each distinct page in a
// process-wide pool keyed by content hash (SHA-256, consistent with the
// registry's content addressing). A session's table is then a slice of
// page pointers; the first write to a shared page copies just that page
// (a "COW fault") and the session owns the copy from there on.
//
// Memory layout: a page is one buffer that holds the page's values, then
// its visit counts packed two int32 to a float64 word, then one flag word
// that is zero on a private page. A private 19-column page therefore costs
// its 228 B of data in exactly one 240-B allocation per fault. Pool
// bookkeeping (content key and refcount) lives in a separate record that
// only a pooled page's flag word names, so private pages carry none of it.
//
// Concurrency contract: a pooled page is immutable after publish — writers
// always fault it out first — so concurrent readers never need a lock. The
// pool itself is sharded like sessionstore so that faults and releases
// from many sessions do not serialise on one mutex; steady-state decides
// on already-owned pages touch the pool not at all.
package qpage

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"
)

// PageRows is the number of table rows per page. One row of a 19-action
// table is a 240-B page in one allocation — the fault quantum. Fault
// granularity is the dominant per-session memory cost under churn: a
// short-lived session visits two or three states before it is reaped, and
// at four rows per page each of those visits dragged in three
// neighbouring rows of dead weight (~3.3 KB/session measured at soak
// scale; ~1 KB at one row). The price is more page pointers per table (25
// instead of 7 for the paper-sized table) and proportionally more
// refcount traffic on clone/release — both off the decide hot path.
const PageRows = 1

// page is the first word of one page buffer, and a Table points at its
// pages by *page, so a private page is exactly one allocation. With
// n = PageRows·cols, the buffer holds pageWords(n) float64 words: the n
// values, then the n visit counts (see visits), then one flag word (see
// flag). Pages are always allocated full-size: the last page of a table
// leaves its tail rows at the fill value.
//
// Visit counts are int32: 2^31 visits per state–action pair is beyond any
// session lifetime, and the narrower lane halves the second-largest slab
// of per-session COW memory. The checkpoint surface (AppendV/FromFlat)
// spells them as plain integers, so nothing serialised changes; the
// loaders reject a count above math.MaxInt32.
//
// Every view of a page is an unsafe.Slice over its buffer. The views are
// sound: the buffer is one pointer-free, 8-byte-aligned float64
// allocation, so every int32 and uint64 lane in it is aligned; the views
// lie inside the pageWords(n) words and never overlap one another; and a
// *page (or an interior pointer into a view) keeps the whole allocation
// alive for the garbage collector, which never scans it.
type page float64

// dataWords is the number of buffer words holding a page's n values and
// its n visit counts; the flag word follows them.
func dataWords(n int) int { return n + (n+1)/2 }

// pageWords is the size in words of the buffer of a page of n values.
func pageWords(n int) int { return dataWords(n) + 1 }

// newPage returns an owned page of n values at fill, n zero visits and a
// clear flag.
func newPage(n int, fill float64) *page {
	buf := make([]float64, pageWords(n))
	if fill != 0 {
		for i := range buf[:n] {
			buf[i] = fill
		}
	}
	return (*page)(&buf[0])
}

// values returns the n values at the start of the page's buffer. A nil
// page (a released table's) panics as a nil dereference: the explicit
// load keeps unsafe.Slice from seeing the nil pointer, which the race
// detector's pointer checks turn into a fatal error instead of a panic.
func (pg *page) values(n int) []float64 {
	_ = *pg
	return unsafe.Slice((*float64)(pg), n)
}

// visits returns the n visit counts stored after the page's n values.
func (pg *page) visits(n int) []int32 {
	return unsafe.Slice((*int32)(unsafe.Add(unsafe.Pointer(pg), n*8)), n)
}

// flag returns the page's flag word, the last word of its buffer: zero
// while the page is private, and a poolRef naming its shared record from
// the moment it is published. A pooled page's flag never changes again.
func (pg *page) flag(n int) *uint64 {
	return (*uint64)(unsafe.Add(unsafe.Pointer(pg), dataWords(n)*8))
}

// pooled reports whether the page of n values is published in a pool.
func (pg *page) pooled(n int) bool { return *pg.flag(n) != 0 }

// ownCopy returns an owned copy of the content of a page of n values.
func ownCopy(pg *page, n int) *page {
	buf := make([]float64, pageWords(n))
	copy(buf, unsafe.Slice((*float64)(pg), dataWords(n)))
	return (*page)(&buf[0])
}

// shared is the pool bookkeeping of a published page. It lives in its
// shard's recs slab, guarded by the shard's mutex; key and pg never
// change while the record is live.
type shared struct {
	key  [32]byte
	refs int64
	pg   *page // the published page, which interns of equal content return
}

// payloadBytes is what the pool's Stats count for a page of n values: its
// values and visit counts.
func payloadBytes(n int) int64 { return int64(n) * (8 + 4) }

// A poolRef is a pooled page's flag word: poolRefBit, then the shard's
// index in bits 32–37 and the record's slot in its shard's recs slab in
// the low 32 bits. The set top bit keeps every poolRef nonzero.
const poolRefBit = 1 << 63

func poolRef(shard int, slot uint32) uint64 {
	return poolRefBit | uint64(shard)<<32 | uint64(slot)
}

// Table is a rows×cols value table stored as page references. Pages are
// either owned (private, freely mutable) or pooled (shared, immutable —
// MutRow faults them out before the first write).
//
// A Table is a 40-B header that its owner holds by value (core.QTable
// embeds one, so a session's table costs no separate allocation). Copying
// it aliases the page slice: a copy moves the table, it never duplicates
// one — use Clone for that.
type Table struct {
	rows, cols int32
	pages      []*page
	pool       *Pool // pool the pooled pages belong to; nil if never interned
}

// span is the number of values (and of visit counts) on one page.
func (t *Table) span() int { return PageRows * int(t.cols) }

const poolShards = 64

type poolShard struct {
	mu sync.Mutex
	m  map[[32]byte]uint32 // content key → slot in recs
	// recs holds the shard's shared records, indexed by the slot in each
	// pooled page's flag word; free lists the slots released records left,
	// so recs never grows past the shard's peak count of distinct pages.
	recs  []shared
	free  []uint32
	pages int64
	bytes int64
	// Pad shards apart so refcount traffic from unrelated sessions does
	// not false-share a cache line, mirroring sessionstore.
	_ [48]byte
}

// Pool is a sharded content-addressed intern pool of immutable pages.
// A page's first intern publishes it; later interns of identical content
// return the published page with its refcount bumped. Releasing the last
// reference removes the page, so a drained fleet leaves the pool empty.
type Pool struct {
	shards [poolShards]poolShard
	faults atomic.Int64
}

// NewPool creates an empty pool.
func NewPool() *Pool {
	p := new(Pool)
	for i := range p.shards {
		p.shards[i].m = make(map[[32]byte]uint32)
	}
	return p
}

// Stats reports the pool's current distinct page count, the bytes those
// shared pages hold, and the cumulative count of COW faults taken against
// it. Pages and bytes fall back to zero as sessions release; faults only
// grow.
func (p *Pool) Stats() (pages, bytes, faults int64) {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		pages += sh.pages
		bytes += sh.bytes
		sh.mu.Unlock()
	}
	return pages, bytes, p.faults.Load()
}

// contentKey hashes the exact content of a page holding n values: lengths
// then raw float64 bits then visit counts, all little-endian. Bit-exact
// equality is the intern criterion (−0 and 0 intern separately; NaNs never
// reach a table — the checkpoint loaders reject them).
func contentKey(pg *page, n int) [32]byte {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	for _, q := range pg.values(n) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(q))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	for _, v := range pg.visits(n) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// intern publishes an owned page of n values (or finds an identical one
// already published) and returns the pooled page with one reference held.
func (p *Pool) intern(pg *page, n int) *page {
	key := contentKey(pg, n)
	si := int(key[0] & (poolShards - 1))
	sh := &p.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if slot, ok := sh.m[key]; ok {
		sh.recs[slot].refs++
		return sh.recs[slot].pg
	}
	var slot uint32
	if k := len(sh.free); k > 0 {
		slot = sh.free[k-1]
		sh.free = sh.free[:k-1]
	} else {
		slot = uint32(len(sh.recs))
		sh.recs = append(sh.recs, shared{})
	}
	sh.recs[slot] = shared{key: key, refs: 1, pg: pg}
	*pg.flag(n) = poolRef(si, slot)
	sh.m[key] = slot
	sh.pages++
	sh.bytes += payloadBytes(n)
	return pg
}

// locate returns the shard and the locked record of a pooled page of n
// values. The caller unlocks the shard. A page whose slot no longer
// records it was released more times than acquired.
func (p *Pool) locate(pg *page, n int) (*poolShard, *shared) {
	ref := *pg.flag(n)
	sh := &p.shards[(ref>>32)&(poolShards-1)]
	sh.mu.Lock()
	if slot := uint32(ref); int(slot) < len(sh.recs) && sh.recs[slot].pg == pg {
		return sh, &sh.recs[slot]
	}
	sh.mu.Unlock()
	panic("qpage: page released more times than acquired")
}

// acquire takes one more reference on an already-pooled page of n values.
func (p *Pool) acquire(pg *page, n int) {
	sh, rec := p.locate(pg, n)
	rec.refs++
	sh.mu.Unlock()
}

// release drops one reference; the last reference removes the page from
// the pool and frees its record's slot. The map entry is deleted rather
// than kept as a tombstone: the pool holds distinct *content*, so its
// population is orders of magnitude below the session count and map
// growth is not a storm concern the way sessionstore's was.
func (p *Pool) release(pg *page, n int) {
	sh, rec := p.locate(pg, n)
	if rec.refs--; rec.refs == 0 {
		delete(sh.m, rec.key)
		sh.pages--
		sh.bytes -= payloadBytes(n)
		sh.free = append(sh.free, uint32(*pg.flag(n)))
		*rec = shared{}
	}
	sh.mu.Unlock()
}

func numPages(rows int) int { return (rows + PageRows - 1) / PageRows }

// checkDims rejects empty tables and dimensions the int32 header cannot
// hold.
func checkDims(rows, cols int) {
	if rows < 1 || cols < 1 || rows > math.MaxInt32 || cols > math.MaxInt32 {
		panic(fmt.Sprintf("qpage: Table(%d rows, %d cols)", rows, cols))
	}
}

// New creates a table of owned pages with every value at fill and every
// visit count at zero.
func New(rows, cols int, fill float64) Table {
	checkDims(rows, cols)
	t := Table{rows: int32(rows), cols: int32(cols), pages: make([]*page, numPages(rows))}
	for i := range t.pages {
		t.pages[i] = newPage(t.span(), fill)
	}
	return t
}

// NewShared creates a table whose pages are all references to one pooled
// uniform page — the cold-start fast path. A fleet of a million
// just-created sessions on the same platform shares a single 228-B page
// payload per distinct (cols, fill) pair.
func (p *Pool) NewShared(rows, cols int, fill float64) Table {
	checkDims(rows, cols)
	t := Table{rows: int32(rows), cols: int32(cols), pool: p, pages: make([]*page, numPages(rows))}
	n := t.span()
	pg := p.intern(newPage(n, fill), n)
	t.pages[0] = pg
	for i := 1; i < len(t.pages); i++ {
		p.acquire(pg, n)
		t.pages[i] = pg
	}
	return t
}

// FromFlat creates a table of owned pages from flat row-major value and
// visit slices, copying both. A visit count outside [0, math.MaxInt32]
// panics: the int32 lane cannot hold it, and the checkpoint loaders
// reject such counts before they get here.
func FromFlat(rows, cols int, q []float64, v []int) Table {
	if len(q) != rows*cols || len(v) != rows*cols {
		panic(fmt.Sprintf("qpage: FromFlat %dx%d given %d values, %d visits", rows, cols, len(q), len(v)))
	}
	t := New(rows, cols, 0)
	for r := 0; r < rows; r++ {
		qr, vr := t.MutRow(r)
		copy(qr, q[r*cols:(r+1)*cols])
		for c, vc := range v[r*cols : (r+1)*cols] {
			if vc < 0 || vc > math.MaxInt32 {
				panic(fmt.Sprintf("qpage: FromFlat visit count %d at (%d,%d) outside [0, %d]", vc, r, c, math.MaxInt32))
			}
			vr[c] = int32(vc)
		}
	}
	return t
}

// Rows returns the table's row count.
func (t *Table) Rows() int { return int(t.rows) }

// Cols returns the table's column count.
func (t *Table) Cols() int { return int(t.cols) }

// Pool returns the pool this table's pooled pages belong to (nil if the
// table was never interned or cloned from a pooled table).
func (t *Table) Pool() *Pool { return t.pool }

// Row returns a read-only view of one row's values. The view may alias a
// shared page: callers must not write through it (use MutRow).
func (t *Table) Row(r int) []float64 {
	off, n := (r%PageRows)*int(t.cols), int(t.cols)
	return t.pages[r/PageRows].values(t.span())[off : off+n : off+n]
}

// VRow returns a read-only view of one row's visit counts.
func (t *Table) VRow(r int) []int32 {
	off, n := (r%PageRows)*int(t.cols), int(t.cols)
	return t.pages[r/PageRows].visits(t.span())[off : off+n : off+n]
}

// MutRow returns writable views of one row's values and visit counts,
// faulting the containing page out of the pool first if it is shared.
func (t *Table) MutRow(r int) ([]float64, []int32) {
	pi, span := r/PageRows, t.span()
	pg := t.pages[pi]
	if pg.pooled(span) {
		pg = t.fault(pi, pg)
	}
	off, n := (r%PageRows)*int(t.cols), int(t.cols)
	return pg.values(span)[off : off+n : off+n], pg.visits(span)[off : off+n : off+n]
}

// fault replaces a pooled page with a private copy — the copy-on-write
// step. The pooled page's values remain visible to every other holder.
func (t *Table) fault(pi int, pooled *page) *page {
	own := ownCopy(pooled, t.span())
	t.pages[pi] = own
	t.pool.release(pooled, t.span())
	t.pool.faults.Add(1)
	return own
}

// Clone returns a table sharing every pooled page (refcounts bumped) and
// deep-copying every owned one. Cloning an interned base is how N sessions
// come to share one warm-start table.
func (t *Table) Clone() Table {
	nt := Table{rows: t.rows, cols: t.cols, pool: t.pool, pages: make([]*page, len(t.pages))}
	n := t.span()
	for i, pg := range t.pages {
		if pg.pooled(n) {
			t.pool.acquire(pg, n)
			nt.pages[i] = pg
		} else {
			nt.pages[i] = ownCopy(pg, n)
		}
	}
	return nt
}

// Intern publishes every owned page of t into pool (deduplicating against
// pages already there) and leaves t referencing the pooled copies. It is
// idempotent; interning one table into two different pools is a
// programming error.
func (t *Table) Intern(pool *Pool) {
	if t.pool != nil && t.pool != pool {
		panic("qpage: table already interned into a different pool")
	}
	t.pool = pool
	n := t.span()
	for i, pg := range t.pages {
		if !pg.pooled(n) {
			t.pages[i] = pool.intern(pg, n)
		}
	}
}

// Release returns every pooled page reference to the pool and poisons the
// table (nil page pointers), so a use-after-release panics loudly instead
// of silently reading freed shared state. Releasing an unpooled table just
// poisons it.
func (t *Table) Release() {
	n := t.span()
	for i, pg := range t.pages {
		if pg != nil && pg.pooled(n) {
			t.pool.release(pg, n)
		}
		t.pages[i] = nil
	}
}

// AppendQ appends the values as one flat row-major JSON array — the
// checkpoint serialisation path, where the wire format must stay exactly
// the pre-paging flat layout. A NaN or ±Inf value is an error (JSON has
// no spelling for it), and the returned slice is then b unchanged.
func (t *Table) AppendQ(b []byte) ([]byte, error) {
	out := append(b, '[')
	for r := range t.Rows() {
		for c, q := range t.Row(r) {
			if r > 0 || c > 0 {
				out = append(out, ',')
			}
			var err error
			if out, err = AppendFloat(out, q); err != nil {
				return b, err
			}
		}
	}
	return append(out, ']'), nil
}

// AppendV appends the visit counts as one flat row-major JSON array.
func (t *Table) AppendV(b []byte) []byte {
	b = append(b, '[')
	for r := range t.Rows() {
		for c, v := range t.VRow(r) {
			if r > 0 || c > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
	return append(b, ']')
}

// AppendFloat appends f exactly as encoding/json spells a float64: the
// shortest round-tripping decimal, in exponent form below 1e-6 and from
// 1e21 up with the exponent's leading zero dropped (1e-7, not 1e-07).
// NaN and ±Inf are errors, as they are for encoding/json.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("qpage: unsupported value: %v", f)
	}
	abs := math.Abs(f)
	if abs < 1e15 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)) {
		// Integral and below 2^50: the shortest decimal is the integer's
		// own digits. −0 takes the general path, which keeps its sign.
		return strconv.AppendInt(b, int64(f), 10), nil
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// SharedPages counts how many of t's page references are pooled (shared),
// for tests and diagnostics.
func (t *Table) SharedPages() int {
	shared, n := 0, t.span()
	for _, pg := range t.pages {
		if pg != nil && pg.pooled(n) {
			shared++
		}
	}
	return shared
}
