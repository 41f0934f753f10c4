// Package qpage implements paged numeric value tables with copy-on-write
// sharing through a content-interned page pool.
//
// The serving tier holds one Q-table (or one per core) per live session.
// The tables are identical by construction across sessions — every
// cold-started session begins from the same uniform InitQ table, and every
// session warm-started from a given registry manifest begins from the same
// trained values — yet each session used to carry its own full deep copy
// (~7.6 KB per 25×19 table). This package splits a table into fixed-size
// pages and keeps one refcounted copy of each distinct page in a
// process-wide pool keyed by content hash (SHA-256, consistent with the
// registry's content addressing). A session's table is then a slice of
// page pointers; the first write to a shared page copies just that page
// (a "COW fault") and the session owns the copy from there on.
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
)

// PageRows is the number of table rows per page. One row of a 19-action
// table is a ~300 B page — the fault quantum. Fault granularity is the
// dominant per-session memory cost under churn: a short-lived session
// visits two or three states before it is reaped, and at four rows per
// page each of those visits dragged in three neighbouring rows of dead
// weight (~3.3 KB/session measured at soak scale; ~1 KB at one row).
// The price is more page pointers per table (25 instead of 7 for the
// paper-sized table) and proportionally more refcount traffic on
// clone/release — both off the decide hot path.
const PageRows = 1

// Page holds PageRows rows of values and visit counts, always allocated
// full-size (the last page of a table leaves its tail rows at the fill
// value). pooled/key/refs are pool bookkeeping: refs is guarded by the
// owning shard's mutex; pooled and key are written once before the page is
// published and never change afterwards.
type Page struct {
	Q []float64
	// V holds visit counts as int32: 2^31 visits per state–action pair
	// is beyond any session lifetime, and the narrower lane halves the
	// second-largest slab of per-session COW memory. The checkpoint
	// surface (AppendV/FromFlat) spells them as plain integers, so nothing
	// serialised changes.
	V []int32

	pooled bool
	key    [32]byte
	refs   int64
}

// Table is a rows×cols value table stored as page references. Pages are
// either owned (private, freely mutable) or pooled (shared, immutable —
// MutRow faults them out before the first write).
type Table struct {
	rows, cols int
	pages      []*Page
	pool       *Pool // pool the pooled pages belong to; nil if never interned
}

const poolShards = 64

type poolShard struct {
	mu    sync.Mutex
	m     map[[32]byte]*Page
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
		p.shards[i].m = make(map[[32]byte]*Page)
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

// contentKey hashes a page's exact content: lengths then raw float64 bits
// then visit counts, all little-endian. Bit-exact equality is the intern
// criterion (−0 and 0 intern separately; NaNs never reach a table — the
// checkpoint loaders reject them).
func contentKey(pg *Page) [32]byte {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(pg.Q)))
	h.Write(buf[:])
	for _, q := range pg.Q {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(q))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(len(pg.V)))
	h.Write(buf[:])
	for _, v := range pg.V {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var key [32]byte
	h.Sum(key[:0])
	return key
}

func pageBytes(pg *Page) int64 { return int64(len(pg.Q))*8 + int64(len(pg.V))*4 }

// intern publishes an owned page (or finds an identical one already
// published) and returns the pooled page with one reference held.
func (p *Pool) intern(pg *Page) *Page {
	key := contentKey(pg)
	sh := p.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if got, ok := sh.m[key]; ok {
		got.refs++
		return got
	}
	pg.pooled = true
	pg.key = key
	pg.refs = 1
	sh.m[key] = pg
	sh.pages++
	sh.bytes += pageBytes(pg)
	return pg
}

// acquire takes one more reference on an already-pooled page.
func (p *Pool) acquire(pg *Page) {
	sh := p.shardOf(pg.key)
	sh.mu.Lock()
	pg.refs++
	sh.mu.Unlock()
}

// release drops one reference; the last reference removes the page from
// the pool. The map entry is deleted rather than kept as a tombstone: the
// pool holds distinct *content*, so its population is orders of magnitude
// below the session count and map growth is not a storm concern the way
// sessionstore's was.
func (p *Pool) release(pg *Page) {
	sh := p.shardOf(pg.key)
	sh.mu.Lock()
	pg.refs--
	if pg.refs == 0 {
		delete(sh.m, pg.key)
		sh.pages--
		sh.bytes -= pageBytes(pg)
	} else if pg.refs < 0 {
		sh.mu.Unlock()
		panic("qpage: page released more times than acquired")
	}
	sh.mu.Unlock()
}

func numPages(rows int) int { return (rows + PageRows - 1) / PageRows }

// New creates a table of owned pages with every value at fill and every
// visit count at zero.
func New(rows, cols int, fill float64) *Table {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("qpage: Table(%d rows, %d cols)", rows, cols))
	}
	t := &Table{rows: rows, cols: cols, pages: make([]*Page, numPages(rows))}
	for i := range t.pages {
		t.pages[i] = newPage(cols, fill)
	}
	return t
}

func newPage(cols int, fill float64) *Page {
	pg := &Page{Q: make([]float64, PageRows*cols), V: make([]int32, PageRows*cols)}
	if fill != 0 {
		for i := range pg.Q {
			pg.Q[i] = fill
		}
	}
	return pg
}

// NewShared creates a table whose pages are all references to one pooled
// uniform page — the cold-start fast path. A fleet of a million
// just-created sessions on the same platform shares a single ~230 B page
// per distinct (cols, fill) pair.
func (p *Pool) NewShared(rows, cols int, fill float64) *Table {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("qpage: Table(%d rows, %d cols)", rows, cols))
	}
	t := &Table{rows: rows, cols: cols, pool: p, pages: make([]*Page, numPages(rows))}
	pg := p.intern(newPage(cols, fill))
	t.pages[0] = pg
	for i := 1; i < len(t.pages); i++ {
		p.acquire(pg)
		t.pages[i] = pg
	}
	return t
}

// FromFlat creates a table of owned pages from flat row-major value and
// visit slices, copying both.
func FromFlat(rows, cols int, q []float64, v []int) *Table {
	if len(q) != rows*cols || len(v) != rows*cols {
		panic(fmt.Sprintf("qpage: FromFlat %dx%d given %d values, %d visits", rows, cols, len(q), len(v)))
	}
	t := New(rows, cols, 0)
	for r := 0; r < rows; r++ {
		pg := t.pages[r/PageRows]
		off := (r % PageRows) * cols
		copy(pg.Q[off:off+cols], q[r*cols:(r+1)*cols])
		for c, vc := range v[r*cols : (r+1)*cols] {
			pg.V[off+c] = int32(vc)
		}
	}
	return t
}

// Rows returns the table's row count.
func (t *Table) Rows() int { return t.rows }

// Cols returns the table's column count.
func (t *Table) Cols() int { return t.cols }

// Pool returns the pool this table's pooled pages belong to (nil if the
// table was never interned or cloned from a pooled table).
func (t *Table) Pool() *Pool { return t.pool }

// Row returns a read-only view of one row's values. The view may alias a
// shared page: callers must not write through it (use MutRow).
func (t *Table) Row(r int) []float64 {
	pg := t.pages[r/PageRows]
	off := (r % PageRows) * t.cols
	return pg.Q[off : off+t.cols : off+t.cols]
}

// VRow returns a read-only view of one row's visit counts.
func (t *Table) VRow(r int) []int32 {
	pg := t.pages[r/PageRows]
	off := (r % PageRows) * t.cols
	return pg.V[off : off+t.cols : off+t.cols]
}

// MutRow returns writable views of one row's values and visit counts,
// faulting the containing page out of the pool first if it is shared.
func (t *Table) MutRow(r int) ([]float64, []int32) {
	pi := r / PageRows
	pg := t.pages[pi]
	if pg.pooled {
		pg = t.fault(pi, pg)
	}
	off := (r % PageRows) * t.cols
	return pg.Q[off : off+t.cols : off+t.cols], pg.V[off : off+t.cols : off+t.cols]
}

// fault replaces a shared page with a private copy — the copy-on-write
// step. The shared page's values remain visible to every other holder.
func (t *Table) fault(pi int, shared *Page) *Page {
	own := &Page{
		Q: append([]float64(nil), shared.Q...),
		V: append([]int32(nil), shared.V...),
	}
	t.pages[pi] = own
	t.pool.release(shared)
	t.pool.faults.Add(1)
	return own
}

// Clone returns a table sharing every pooled page (refcounts bumped) and
// deep-copying every owned one. Cloning an interned base is how N sessions
// come to share one warm-start table.
func (t *Table) Clone() *Table {
	nt := &Table{rows: t.rows, cols: t.cols, pool: t.pool, pages: make([]*Page, len(t.pages))}
	for i, pg := range t.pages {
		if pg.pooled {
			t.pool.acquire(pg)
			nt.pages[i] = pg
		} else {
			nt.pages[i] = &Page{
				Q: append([]float64(nil), pg.Q...),
				V: append([]int32(nil), pg.V...),
			}
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
		if !pg.pooled {
			t.pages[i] = pool.intern(pg)
		}
	}
}

// Release returns every pooled page reference to the pool and poisons the
// table (nil page pointers), so a use-after-release panics loudly instead
// of silently reading freed shared state. Releasing an unpooled table just
// poisons it.
func (t *Table) Release() {
	for i, pg := range t.pages {
		if pg != nil && pg.pooled {
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
	for r := 0; r < t.rows; r++ {
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
	for r := 0; r < t.rows; r++ {
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
		if pg != nil && pg.pooled {
			n++
		}
	}
	return n
}
