// Package intern implements a canonicalizing attribute interner for the
// duplicate-dominated update streams the paper measures: each distinct
// bgp.Attrs tuple (and each distinct bare AS path) is stored once, and every
// later occurrence resolves to the same immutable *Handle. Interning turns
// the hot-path comparisons — PolicyEqual on the classifier's AADup test,
// ForwardingEqual on the WADup test, path-set membership in the RIB census —
// into pointer and integer compares, and eliminates the per-record deep
// copies of path segments and community slices that otherwise dominate
// allocation.
package intern

import (
	"sync/atomic"

	"instability/internal/bgp"
	"instability/internal/netaddr"
	"instability/internal/obs"
)

// Handle is the shared immutable representative of one distinct attribute
// tuple within one Table. Two handles from the same table are the same
// pointer exactly when their tuples are PolicyEqual; the PathID fields of two
// handles from the same table are equal exactly when their AS paths are
// equal. Handles from different tables must not be compared.
type Handle struct {
	attrs bgp.Attrs
	// FwdHash is a precomputed 64-bit hash of the forwarding-relevant
	// (NextHop, ASPATH) portion of the tuple, for callers that need a
	// hash-distributed key without rehashing the path.
	FwdHash uint64
	// ID is the dense per-table identity of the full tuple (assigned in
	// first-seen order).
	ID uint32
	// PathID is the dense per-table identity of the AS path alone.
	PathID bgp.PathID
}

// Attrs returns the canonical attribute tuple. The returned value shares the
// handle's interned slices and must be treated as read-only.
func (h *Handle) Attrs() bgp.Attrs { return h.attrs }

// Path returns the canonical tuple's AS path without copying the rest of
// the tuple. It shares the handle's interned segments: read-only.
func (h *Handle) Path() bgp.ASPath { return h.attrs.Path }

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

// Table interns attribute tuples and AS paths. It is NOT safe for concurrent
// use: each pipeline shard, RIB, session, and generator owns a private
// table, and each store wraps its one table in a mutex. Tables
// retain every tuple ever interned; the working sets here (distinct
// attribute tuples in a BGP stream) are small by construction — that
// smallness is the paper's whole point.
type Table struct {
	byHash map[uint64][]*Handle
	n      uint32
	paths  *bgp.PathTable

	// Stats are accumulated locally and flushed to the process-wide obs
	// counters in batches, so shards never contend on a shared cache line
	// per record.
	hits, misses, pathMisses uint64
}

// statsFlushEvery is the local lookup count at which a table folds its hit
// and miss tallies into the process counters.
const statsFlushEvery = 4096

// New returns an empty interner.
func New() *Table {
	return &Table{
		byHash: make(map[uint64][]*Handle),
		paths:  bgp.NewPathTable(),
	}
}

// Attrs interns a and returns its canonical handle. On a miss the tuple is
// deep-copied (path segments and communities), so the caller's slices are
// never retained; on a hit nothing is allocated.
func (t *Table) Attrs(a bgp.Attrs) *Handle { return t.lookup(&a) }

// AttrsAfter is Attrs for a tuple that usually repeats prev, the handle the
// caller last interned for the same route (nil for none). A tuple
// PolicyEqual to prev's resolves to prev with one comparison and no hash,
// counted as the hit Attrs would count: a table holds one handle per
// PolicyEqual class, so prev is the handle Attrs would return. prev must
// come from t.
func (t *Table) AttrsAfter(prev *Handle, a *bgp.Attrs) *Handle {
	if prev != nil && prev.attrs.PolicyEqual(a) {
		t.hit()
		return prev
	}
	return t.lookup(a)
}

// lookup is the hashed lookup behind Attrs and AttrsAfter; a is read, never
// retained.
func (t *Table) lookup(a *bgp.Attrs) *Handle {
	h := hashAttrs(a)
	for _, cand := range t.byHash[h] {
		if cand.attrs.PolicyEqual(a) {
			t.hit()
			return cand
		}
	}
	before := t.paths.Len()
	pid := t.paths.ID(a.Path)
	if t.paths.Len() != before {
		t.pathMisses++
	}
	canon := *a
	canon.Path = t.paths.Lookup(pid)
	if len(a.Communities) > 0 {
		canon.Communities = append([]bgp.Community(nil), a.Communities...)
	}
	hd := &Handle{
		attrs:   canon,
		FwdHash: fwdHash(canon.NextHop, pid),
		ID:      t.n,
		PathID:  pid,
	}
	t.n++
	t.byHash[h] = append(t.byHash[h], hd)
	t.misses++
	t.maybeFlush()
	return hd
}

// Paths exposes the table's path store, for merge-time ID remapping.
func (t *Table) Paths() *bgp.PathTable { return t.paths }

// Len returns the number of distinct attribute tuples interned.
func (t *Table) Len() int { return int(t.n) }

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

// hashAttrs hashes the full policy tuple without allocating. PolicyEqual
// tuples hash identically.
func hashAttrs(a *bgp.Attrs) uint64 {
	h := bgp.HashPath(a.Path)
	h = mix(h ^ uint64(a.NextHop))
	var flags uint64
	if a.HasMED {
		flags |= 1
	}
	if a.HasLocalPref {
		flags |= 2
	}
	if a.AtomicAggregate {
		flags |= 4
	}
	if a.HasAggregator {
		flags |= 8
	}
	h = mix(h ^ uint64(a.Origin)<<8 ^ flags<<16 ^ uint64(a.MED)<<24 ^ uint64(a.LocalPref))
	h = mix(h ^ uint64(a.AggregatorAS)<<32 ^ uint64(a.AggregatorAddr))
	for _, c := range a.Communities {
		h = mix(h ^ uint64(c))
	}
	return h
}

// fwdHash is the precomputed forwarding hash stored on every handle: a mix
// of the next hop and the interned path identity, so the full (NextHop,
// ASPATH) tuple hashes in two mixes with no path walk.
func fwdHash(nextHop netaddr.Addr, pid bgp.PathID) uint64 {
	return mix(uint64(nextHop)<<32 ^ uint64(pid))
}

// mix is the SplitMix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Process-wide interning statistics: the obs series double as the CLI
// summaries' data source via Stats.
var (
	totalHits, totalMisses, totalPaths atomic.Uint64

	obsHits = obs.Default().Counter("irtl_intern_hits_total",
		"Attribute-tuple intern lookups that returned an existing handle.")
	obsMisses = obs.Default().Counter("irtl_intern_misses_total",
		"Attribute-tuple intern lookups that created a new handle, summed over tables (a tuple two tables intern counts twice).")
	obsPaths = obs.Default().Counter("irtl_intern_paths_total",
		"AS paths interned, summed over tables.")
)

// Stats returns the process-wide flushed interning tallies, summed over
// tables: lookup hits, misses (tuples created), and paths interned. Tables
// flush in batches, so totals lag live tables by at most statsFlushEvery
// lookups each unless FlushStats was called.
func Stats() (hits, misses, paths uint64) {
	return totalHits.Load(), totalMisses.Load(), totalPaths.Load()
}
