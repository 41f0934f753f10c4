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
// Memory layout: a page is a 32-B header over one buffer that holds the
// page's values and then its visit counts, packed two int32 to a float64
// word. A private 19-column page therefore costs its 228 B of data in a
// 240-B allocation plus the header — 272 B in two allocations per fault.
// Pool bookkeeping (content key and refcount) lives in a separate record
// that only pooled pages point to, so private pages carry none of it.
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
// table is a 272-B page (header and buffer) — the fault quantum. Fault
// granularity is the dominant per-session memory cost under churn: a
// short-lived session visits two or three states before it is reaped, and
// at four rows per page each of those visits dragged in three
// neighbouring rows of dead weight (~3.3 KB/session measured at soak
// scale; ~1 KB at one row). The price is more page pointers per table (25
// instead of 7 for the paper-sized table) and proportionally more
// refcount traffic on clone/release — both off the decide hot path.
const PageRows = 1

// page holds PageRows rows of values and visit counts, always allocated
// full-size (the last page of a table leaves its tail rows at the fill
// value). With n = PageRows·cols, buf holds the n values and then the n
// visit counts (see newBuf and visits).
//
// Visit counts are int32: 2^31 visits per state–action pair is beyond any
// session lifetime, and the narrower lane halves the second-largest slab
// of per-session COW memory. The checkpoint surface (AppendV/FromFlat)
// spells them as plain integers, so nothing serialised changes.
type page struct {
	buf []float64
	// shared is non-nil exactly when the page is pooled. It is set once
	// before the page is published and never changes afterwards.
	shared *shared
}

// shared is the pool bookkeeping of a published page. refs is guarded by
// the owning shard's mutex; key and bytes never change.
type shared struct {
	key   [32]byte
	refs  int64
	bytes int64 // payload bytes, for the pool's Stats
}

// newBuf allocates one page buffer for n values and n visit counts: n
// float64 words, then ceil(n/2) words that visits views as n int32.
func newBuf(n int) []float64 { return make([]float64, n+(n+1)/2) }

// visits returns the n visit counts stored after the n values of a buffer
// from newBuf. The view is sound: the backing array is one pointer-free,
// 8-byte-aligned float64 allocation, so every int32 lane in it is aligned;
// the 4n bytes viewed lie inside the ceil(n/2) words newBuf reserved past
// the values and never overlap them; and the interior pointer keeps the
// whole allocation alive for the garbage collector, which never scans it.
func visits(buf []float64, n int) []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(&buf[n])), n)
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
	mu    sync.Mutex
	m     map[[32]byte]*page
	pages int64
	bytes int64
	// Pad shards apart so refcount traffic from unrelated sessions does
	// not false-share a cache line, mirroring sessionstore.
	_ [24]byte
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
		p.shards[i].m = make(map[[32]byte]*page)
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

func (p *Pool) shardOf(key [32]byte) *poolShard { return &p.shards[key[0]&(poolShards-1)] }

// contentKey hashes the exact content of a page holding n values: lengths
// then raw float64 bits then visit counts, all little-endian. Bit-exact
// equality is the intern criterion (−0 and 0 intern separately; NaNs never
// reach a table — the checkpoint loaders reject them).
func contentKey(pg *page, n int) [32]byte {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	for _, q := range pg.buf[:n] {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(q))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	for _, v := range visits(pg.buf, n) {
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
	sh := p.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if got, ok := sh.m[key]; ok {
		got.shared.refs++
		return got
	}
	pg.shared = &shared{key: key, refs: 1, bytes: int64(n) * (8 + 4)}
	sh.m[key] = pg
	sh.pages++
	sh.bytes += pg.shared.bytes
	return pg
}

// acquire takes one more reference on an already-pooled page.
func (p *Pool) acquire(pg *page) {
	sh := p.shardOf(pg.shared.key)
	sh.mu.Lock()
	pg.shared.refs++
	sh.mu.Unlock()
}

// release drops one reference; the last reference removes the page from
// the pool. The map entry is deleted rather than kept as a tombstone: the
// pool holds distinct *content*, so its population is orders of magnitude
// below the session count and map growth is not a storm concern the way
// sessionstore's was.
func (p *Pool) release(pg *page) {
	ps := pg.shared
	sh := p.shardOf(ps.key)
	sh.mu.Lock()
	ps.refs--
	if ps.refs == 0 {
		delete(sh.m, ps.key)
		sh.pages--
		sh.bytes -= ps.bytes
	} else if ps.refs < 0 {
		sh.mu.Unlock()
		panic("qpage: page released more times than acquired")
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

// newPage returns an owned page of n values at fill and n zero visits.
func newPage(n int, fill float64) *page {
	pg := &page{buf: newBuf(n)}
	if fill != 0 {
		for i := range pg.buf[:n] {
			pg.buf[i] = fill
		}
	}
	return pg
}

// ownCopy returns an owned copy of pg's content.
func ownCopy(pg *page) *page {
	buf := make([]float64, len(pg.buf))
	copy(buf, pg.buf)
	return &page{buf: buf}
}

// NewShared creates a table whose pages are all references to one pooled
// uniform page — the cold-start fast path. A fleet of a million
// just-created sessions on the same platform shares a single 228-B page
// payload per distinct (cols, fill) pair.
func (p *Pool) NewShared(rows, cols int, fill float64) Table {
	checkDims(rows, cols)
	t := Table{rows: int32(rows), cols: int32(cols), pool: p, pages: make([]*page, numPages(rows))}
	pg := p.intern(newPage(t.span(), fill), t.span())
	t.pages[0] = pg
	for i := 1; i < len(t.pages); i++ {
		p.acquire(pg)
		t.pages[i] = pg
	}
	return t
}

// FromFlat creates a table of owned pages from flat row-major value and
// visit slices, copying both.
func FromFlat(rows, cols int, q []float64, v []int) Table {
	if len(q) != rows*cols || len(v) != rows*cols {
		panic(fmt.Sprintf("qpage: FromFlat %dx%d given %d values, %d visits", rows, cols, len(q), len(v)))
	}
	t := New(rows, cols, 0)
	for r := 0; r < rows; r++ {
		qr, vr := t.MutRow(r)
		copy(qr, q[r*cols:(r+1)*cols])
		for c, vc := range v[r*cols : (r+1)*cols] {
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
	pg := t.pages[r/PageRows]
	off, n := (r%PageRows)*int(t.cols), int(t.cols)
	return pg.buf[off : off+n : off+n]
}

// VRow returns a read-only view of one row's visit counts.
func (t *Table) VRow(r int) []int32 {
	pg := t.pages[r/PageRows]
	off, n := (r%PageRows)*int(t.cols), int(t.cols)
	return visits(pg.buf, t.span())[off : off+n : off+n]
}

// MutRow returns writable views of one row's values and visit counts,
// faulting the containing page out of the pool first if it is shared.
func (t *Table) MutRow(r int) ([]float64, []int32) {
	pi := r / PageRows
	pg := t.pages[pi]
	if pg.shared != nil {
		pg = t.fault(pi, pg)
	}
	off, n := (r%PageRows)*int(t.cols), int(t.cols)
	return pg.buf[off : off+n : off+n], visits(pg.buf, t.span())[off : off+n : off+n]
}

// fault replaces a pooled page with a private copy — the copy-on-write
// step. The pooled page's values remain visible to every other holder.
func (t *Table) fault(pi int, pooled *page) *page {
	own := ownCopy(pooled)
	t.pages[pi] = own
	t.pool.release(pooled)
	t.pool.faults.Add(1)
	return own
}

// Clone returns a table sharing every pooled page (refcounts bumped) and
// deep-copying every owned one. Cloning an interned base is how N sessions
// come to share one warm-start table.
func (t *Table) Clone() Table {
	nt := Table{rows: t.rows, cols: t.cols, pool: t.pool, pages: make([]*page, len(t.pages))}
	for i, pg := range t.pages {
		if pg.shared != nil {
			t.pool.acquire(pg)
			nt.pages[i] = pg
		} else {
			nt.pages[i] = ownCopy(pg)
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
	for i, pg := range t.pages {
		if pg.shared == nil {
			t.pages[i] = pool.intern(pg, t.span())
		}
	}
}

// Release returns every pooled page reference to the pool and poisons the
// table (nil page pointers), so a use-after-release panics loudly instead
// of silently reading freed shared state. Releasing an unpooled table just
// poisons it.
func (t *Table) Release() {
	for i, pg := range t.pages {
		if pg != nil && pg.shared != nil {
			t.pool.release(pg)
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
	n := 0
	for _, pg := range t.pages {
		if pg != nil && pg.shared != nil {
			n++
		}
	}
	return n
}
