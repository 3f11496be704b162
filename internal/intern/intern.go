// Package intern implements a canonicalizing attribute interner for the
// duplicate-dominated update streams the paper measures: each distinct
// bgp.Attrs tuple is stored once, and every later occurrence resolves to the
// same immutable *Handle. A tuple is what its wire bytes say, as the paper's
// route servers logged it, so a table is keyed on the canonical wire
// encoding: a lookup encodes the tuple into the table's scratch buffer and
// probes one map, and only a miss decodes. Interning turns the hot-path
// comparisons — PolicyEqual on the classifier's AADup test, ForwardingEqual
// on the WADup test — into pointer and integer compares, and gives the store
// the bytes, origin and dense identity every row and dictionary entry it
// writes needs.
package intern

import (
	"bytes"
	"slices"
	"sync/atomic"
	"unsafe"

	"instability/internal/bgp"
	"instability/internal/obs"
)

// Handle is the shared immutable representative of one distinct attribute
// tuple within one Table. Two handles from the same table are the same
// pointer exactly when their tuples encode to the same wire bytes (are
// PolicyEqual); the PathID fields of two handles from the same table are
// equal exactly when their AS paths are equal. Handles from different tables
// must not be compared.
type Handle struct {
	attrs  bgp.Attrs
	wire   []byte
	origin int32
	// ID is the dense per-table identity of the full tuple (assigned in
	// first-seen order).
	ID uint32
	// PathID is the dense per-table identity of the AS path alone.
	PathID bgp.PathID
}

// Attrs returns the canonical attribute tuple, read-only: the handle's own
// value, so a caller copies it once, straight to where it goes.
func (h *Handle) Attrs() *bgp.Attrs { return &h.attrs }

// Path returns the canonical tuple's AS path without copying the rest of
// the tuple. It shares the handle's interned segments: read-only.
func (h *Handle) Path() bgp.ASPath { return h.attrs.Path }

// Wire returns the tuple's canonical wire bytes (bgp.AppendAttrs), read-only.
func (h *Handle) Wire() []byte { return h.wire }

// Origin returns the tuple's origin AS, -1 when its path has none.
func (h *Handle) Origin() int32 { return h.origin }

// ForwardingEqual reports whether two handles from the same table agree on
// the forwarding-relevant (NextHop, ASPATH) tuple — the paper's duplicate
// test — as one pointer compare or two integer compares, never a path walk.
func ForwardingEqual(a, b *Handle) bool {
	if a == b {
		return a != nil
	}
	if a == nil || b == nil {
		return false
	}
	return a.attrs.NextHop == b.attrs.NextHop && a.PathID == b.PathID
}

// Table interns attribute tuples by their canonical wire bytes. It is NOT
// safe for concurrent use: each classifier and session owns a private table,
// and the store guards its one table with a mutex. Tables retain every tuple
// ever interned; the working sets here (distinct attribute tuples in a BGP
// stream) are small by construction — that smallness is the paper's whole
// point.
type Table struct {
	byWire  map[string]*Handle // canonical wire bytes, and any other spelling Wire resolved, to a handle
	scratch []byte             // the wire bytes being looked up, reused
	n       uint32
	paths   *bgp.PathTable

	// Stats are accumulated locally and flushed to the process-wide obs
	// counters in batches, so tables never contend on a shared cache line
	// per record.
	hits, misses, pathMisses uint64
}

// statsFlushEvery is the local lookup count at which a table folds its hit
// and miss tallies into the process counters.
const statsFlushEvery = 4096

// New returns an empty interner.
func New() *Table {
	return &Table{
		byWire: make(map[string]*Handle),
		paths:  bgp.NewPathTable(),
	}
}

// Attrs interns *a and returns its canonical handle, or the encoder's error
// for a tuple with no wire form (an origin code above 2, an AS-path segment
// that is empty or longer than 255 ASNs). A hit encodes into the table's
// scratch buffer and probes one map, allocating nothing; a miss decodes the
// tuple from its bytes, so the caller's slices are never retained. a is
// read, never retained.
func (t *Table) Attrs(a *bgp.Attrs) (*Handle, error) {
	var err error
	if t.scratch, err = bgp.AppendAttrs(t.scratch[:0], a); err != nil {
		return nil, err
	}
	if h, ok := t.byWire[string(t.scratch)]; ok {
		t.hit()
		return h, nil
	}
	canon, err := bgp.UnmarshalAttrs(t.scratch)
	if err != nil {
		return nil, err
	}
	h := t.add(canon, bytes.Clone(t.scratch))
	// The key shares the handle's bytes, which nothing ever writes.
	t.byWire[unsafe.String(unsafe.SliceData(h.wire), len(h.wire))] = h
	return h, nil
}

// AttrsAfter is Attrs for a tuple that usually repeats prev, the handle the
// caller last interned for the same route (nil for none). A tuple
// PolicyEqual to prev's resolves to prev with one comparison and no encoding,
// counted as the hit Attrs would count: PolicyEqual tuples encode to the same
// bytes, so prev is the handle Attrs would return. A tuple with no wire form
// gets a handle of its own, entered in no map: a route is only ever compared
// with its previous tuple, which such a handle still answers. prev must come
// from t.
func (t *Table) AttrsAfter(prev *Handle, a *bgp.Attrs) *Handle {
	if prev != nil && prev.attrs.PolicyEqual(a) {
		t.hit()
		return prev
	}
	h, err := t.Attrs(a)
	if err != nil {
		canon := *a
		canon.Communities = slices.Clone(a.Communities)
		h = t.add(canon, nil) // add copies the path
	}
	return h
}

// Wire returns the handle of the tuple whose wire bytes are w (not
// retained), as a stored block's dictionary holds them. Bytes that are not
// the canonical encoding of what they decode to (a legacy writer's
// spelling) become another key for the canonical tuple's handle.
func (t *Table) Wire(w []byte) (*Handle, error) {
	if h, ok := t.byWire[string(w)]; ok {
		t.hit()
		return h, nil
	}
	a, err := bgp.UnmarshalAttrs(w)
	if err != nil {
		return nil, err
	}
	h, err := t.Attrs(&a)
	if err == nil && !bytes.Equal(w, h.wire) {
		t.byWire[string(w)] = h
	}
	return h, err
}

// add makes the handle of a new tuple a, whose slices it takes, sharing its
// path with every handle of an equal path.
func (t *Table) add(a bgp.Attrs, wire []byte) *Handle {
	before := t.paths.Len()
	pid := t.paths.ID(a.Path)
	if t.paths.Len() != before {
		t.pathMisses++
	}
	a.Path = t.paths.Lookup(pid)
	h := &Handle{attrs: a, wire: wire, origin: -1, ID: t.n, PathID: pid}
	if o, ok := a.Path.Origin(); ok {
		h.origin = int32(o)
	}
	t.n++
	t.misses++
	t.maybeFlush()
	return h
}

// hit counts a lookup that returned an existing handle.
func (t *Table) hit() {
	t.hits++
	t.maybeFlush()
}

func (t *Table) maybeFlush() {
	if t.hits+t.misses >= statsFlushEvery {
		t.FlushStats()
	}
}

// FlushStats folds the table's local hit/miss tallies into the process-wide
// counters. Tables flush automatically every few thousand lookups; owners
// with a natural quiescent point (day barriers, Close) may flush explicitly
// so the exported numbers are exact.
func (t *Table) FlushStats() {
	if t.hits == 0 && t.misses == 0 && t.pathMisses == 0 {
		return
	}
	totalHits.Add(t.hits)
	totalMisses.Add(t.misses)
	totalPaths.Add(t.pathMisses)
	obsHits.Add(int64(t.hits))
	obsMisses.Add(int64(t.misses))
	obsPaths.Add(int64(t.pathMisses))
	t.hits, t.misses, t.pathMisses = 0, 0, 0
}

// Process-wide interning statistics, summed over every table, the store's
// included: the obs series double as the CLI summaries' data source via
// Stats.
var (
	totalHits, totalMisses, totalPaths atomic.Uint64

	obsHits = obs.Default().Counter("irtl_intern_hits_total",
		"Attribute-tuple intern lookups that returned an existing handle, summed over every table (classifiers, sessions and the store's).")
	obsMisses = obs.Default().Counter("irtl_intern_misses_total",
		"Attribute-tuple intern lookups that created a new handle, summed over every table, the store's included (a tuple two tables intern counts twice).")
	obsPaths = obs.Default().Counter("irtl_intern_paths_total",
		"AS paths interned, summed over every table, the store's included.")
)

// Stats returns the process-wide flushed interning tallies, summed over
// every table, the store's included: lookup hits, misses (tuples created),
// and paths interned. Tables flush in batches, so totals lag live tables by
// at most statsFlushEvery lookups each unless FlushStats was called.
func Stats() (hits, misses, paths uint64) {
	return totalHits.Load(), totalMisses.Load(), totalPaths.Load()
}
