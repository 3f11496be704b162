// Package rib implements the routing information base used by the simulated
// routers and route servers: a table of prefixes keyed by netaddr.Prefix.Key,
// the Adj-RIB-In / Loc-RIB / Adj-RIB-Out split of RFC 1771, the BGP decision
// process, CIDR aggregation, and the multihoming census the paper's Figure 10
// is built on.
package rib

import (
	"fmt"
	"math/bits"
	"slices"

	"instability/internal/bgp"
	"instability/internal/netaddr"
)

// PeerID identifies a peering session in a RIB: the neighbor's AS plus its
// BGP identifier.
type PeerID struct {
	AS bgp.ASN
	ID netaddr.Addr
}

// String formats the peer for logs and tables.
func (p PeerID) String() string { return fmt.Sprintf("%v/%v", p.AS, p.ID) }

// entry is one candidate route learned from one peer.
type entry struct {
	peer  PeerID
	attrs bgp.Attrs
}

// prefixState holds all candidates for a prefix plus the current best index.
// A state whose candidate list has emptied is kept in the table as a
// tombstone (best == -1) rather than deleted: route flaps withdraw and
// re-announce the same prefixes over and over, and reusing the state and its
// candidate capacity makes the steady-state flap cycle allocation-free.
type prefixState struct {
	candidates []entry
	best       int // index into candidates, -1 when none
}

// Decision describes how a RIB change affected the best route for a prefix,
// which is exactly what a border router propagates to its peers.
type Decision struct {
	Prefix netaddr.Prefix
	// HadBest/NewBest describe the before/after best route.
	HadBest bool
	Old     bgp.Attrs
	OldPeer PeerID
	HasBest bool
	New     bgp.Attrs
	NewPeer PeerID
}

// Changed reports whether the best forwarding route differs after the update
// (including appearing or disappearing).
func (d Decision) Changed() bool {
	if d.HadBest != d.HasBest {
		return true
	}
	if !d.HasBest {
		return false
	}
	return d.OldPeer != d.NewPeer || !d.Old.ForwardingEqual(&d.New)
}

// PolicyChanged reports whether any attribute of the best route differs, even
// if the forwarding tuple is unchanged (the paper's policy fluctuation).
func (d Decision) PolicyChanged() bool {
	if d.HadBest != d.HasBest {
		return true
	}
	if !d.HasBest {
		return false
	}
	return d.OldPeer != d.NewPeer || !d.Old.PolicyEqual(&d.New)
}

// RIB is a router's routing information base: per-peer Adj-RIB-In candidates
// merged into a Loc-RIB by the BGP decision process.
type RIB struct {
	localAS bgp.ASN
	// table maps each prefix's Key to its state. keys holds every key of
	// table, sorted before a walk when sorted is false: states are never
	// deleted, so keys only grows.
	table  map[uint64]*prefixState
	keys   []uint64
	sorted bool
	// live counts prefixes with at least one candidate; the table may
	// additionally hold tombstoned states awaiting reuse.
	live int
}

// New returns an empty RIB for a router in the given AS.
func New(localAS bgp.ASN) *RIB {
	return &RIB{localAS: localAS, table: make(map[uint64]*prefixState)}
}

// walk visits every state, tombstones included, in prefix Compare order
// (Key order). Returning false from fn stops the walk.
func (r *RIB) walk(fn func(p netaddr.Prefix, st *prefixState) bool) {
	if !r.sorted {
		slices.Sort(r.keys)
		r.sorted = true
	}
	for _, k := range r.keys {
		if !fn(netaddr.PrefixFromKey(k), r.table[k]) {
			return
		}
	}
}

// Len returns the number of prefixes with at least one candidate route.
func (r *RIB) Len() int { return r.live }

// Update installs (or replaces) the route for prefix learned from peer and
// re-runs the decision process. Routes whose AS_PATH contains the local AS
// are rejected as loops: the candidate is not installed and the returned
// Decision reflects no change.
func (r *RIB) Update(peer PeerID, prefix netaddr.Prefix, attrs bgp.Attrs) Decision {
	d := Decision{Prefix: prefix}
	k := prefix.Key()
	st, ok := r.table[k]
	if ok && st.best >= 0 {
		d.HadBest = true
		d.Old = st.candidates[st.best].attrs
		d.OldPeer = st.candidates[st.best].peer
	}
	if attrs.Path.Contains(r.localAS) {
		// Loop detected; leave state untouched.
		d.HasBest, d.New, d.NewPeer = d.HadBest, d.Old, d.OldPeer
		return d
	}
	if !ok {
		st = &prefixState{best: -1}
		r.table[k] = st
		r.keys = append(r.keys, k)
		r.sorted = false
	}
	if len(st.candidates) == 0 {
		r.live++ // fresh prefix, or a tombstone coming back to life
	}
	replaced := false
	for i := range st.candidates {
		if st.candidates[i].peer == peer {
			st.candidates[i].attrs = attrs
			replaced = true
			break
		}
	}
	if !replaced {
		st.candidates = append(st.candidates, entry{peer: peer, attrs: attrs})
	}
	r.decide(st)
	if st.best >= 0 {
		d.HasBest = true
		d.New = st.candidates[st.best].attrs
		d.NewPeer = st.candidates[st.best].peer
	}
	return d
}

// Withdraw removes peer's candidate for prefix and re-runs the decision
// process. Withdrawing a route that was never announced is a no-op whose
// Decision reports no change — the pathological WWDup case.
func (r *RIB) Withdraw(peer PeerID, prefix netaddr.Prefix) Decision {
	d := Decision{Prefix: prefix}
	st, ok := r.table[prefix.Key()]
	if !ok || len(st.candidates) == 0 {
		return d // unknown prefix or an existing tombstone: WWDup either way
	}
	if st.best >= 0 {
		d.HadBest = true
		d.Old = st.candidates[st.best].attrs
		d.OldPeer = st.candidates[st.best].peer
	}
	for i := range st.candidates {
		if st.candidates[i].peer == peer {
			st.candidates = append(st.candidates[:i], st.candidates[i+1:]...)
			break
		}
	}
	if len(st.candidates) == 0 {
		// Tombstone the state in place of a delete: the next announce
		// of this prefix (the flap pattern) reuses it and its capacity.
		st.best = -1
		r.live--
		return d
	}
	r.decide(st)
	if st.best >= 0 {
		d.HasBest = true
		d.New = st.candidates[st.best].attrs
		d.NewPeer = st.candidates[st.best].peer
	}
	return d
}

// WithdrawPeer removes every candidate learned from peer — the effect of a
// session loss — and returns the decisions for all prefixes whose best route
// changed. This is the mechanism by which one failed peering session floods
// topology changes to every other peer (the seed of a route flap storm).
func (r *RIB) WithdrawPeer(peer PeerID) []Decision {
	var affected []netaddr.Prefix
	r.walk(func(p netaddr.Prefix, st *prefixState) bool {
		for _, c := range st.candidates {
			if c.peer == peer {
				affected = append(affected, p)
				break
			}
		}
		return true
	})
	out := make([]Decision, 0, len(affected))
	for _, p := range affected {
		d := r.Withdraw(peer, p)
		if d.Changed() {
			out = append(out, d)
		}
	}
	return out
}

// decide runs the BGP decision process over the candidates.
//
// Preference order (RFC 1771 §9.1 as commonly implemented in 1996):
//  1. highest LOCAL_PREF (absent treated as 100)
//  2. shortest AS_PATH
//  3. lowest ORIGIN code
//  4. lowest MED (absent treated as 0; compared across all neighbors, the
//     era's common "always-compare-med" simplification)
//  5. lowest peer BGP identifier (deterministic tie-break)
func (r *RIB) decide(st *prefixState) {
	best := -1
	for i := range st.candidates {
		if best < 0 || better(st.candidates[i], st.candidates[best]) {
			best = i
		}
	}
	st.best = best
}

func better(a, b entry) bool {
	la, lb := localPref(a.attrs), localPref(b.attrs)
	if la != lb {
		return la > lb
	}
	if al, bl := a.attrs.Path.Len(), b.attrs.Path.Len(); al != bl {
		return al < bl
	}
	if a.attrs.Origin != b.attrs.Origin {
		return a.attrs.Origin < b.attrs.Origin
	}
	if ma, mb := med(a.attrs), med(b.attrs); ma != mb {
		return ma < mb
	}
	return a.peer.ID < b.peer.ID
}

func localPref(a bgp.Attrs) uint32 {
	if a.HasLocalPref {
		return a.LocalPref
	}
	return 100
}

func med(a bgp.Attrs) uint32 {
	if a.HasMED {
		return a.MED
	}
	return 0
}

// Best returns the current best route for prefix.
func (r *RIB) Best(prefix netaddr.Prefix) (bgp.Attrs, PeerID, bool) {
	st, ok := r.table[prefix.Key()]
	if !ok || st.best < 0 {
		return bgp.Attrs{}, PeerID{}, false
	}
	return st.candidates[st.best].attrs, st.candidates[st.best].peer, true
}

// Candidates returns the number of candidate routes held for prefix.
func (r *RIB) Candidates(prefix netaddr.Prefix) int {
	st, ok := r.table[prefix.Key()]
	if !ok {
		return 0
	}
	return len(st.candidates)
}

// WalkBest visits every prefix that currently has a best route, in Compare
// order. Returning false from fn stops the walk.
func (r *RIB) WalkBest(fn func(p netaddr.Prefix, attrs bgp.Attrs, peer PeerID) bool) {
	r.walk(func(p netaddr.Prefix, st *prefixState) bool {
		if st.best < 0 {
			return true
		}
		c := st.candidates[st.best]
		return fn(p, c.attrs, c.peer)
	})
}

// Census summarizes the routing table the way the paper's §6 does: total
// prefixes, the number reachable via two or more distinct paths (multihomed,
// Figure 10), distinct origin ASes, and distinct AS paths.
type Census struct {
	Prefixes    int
	Multihomed  int
	OriginASes  int
	UniquePaths int
}

// MultihomedShare returns the multihomed fraction of the table (the paper
// reports >25%).
func (c Census) MultihomedShare() float64 {
	if c.Prefixes == 0 {
		return 0
	}
	return float64(c.Multihomed) / float64(c.Prefixes)
}

// TakeCensus computes a Census over the current table.
func (r *RIB) TakeCensus() Census {
	return MergeCensuses(r.TakePartialCensus())
}

// PartialCensus is the mergeable form of a Census, for tables that hold
// disjoint prefix partitions of one logical routing table (a sharded
// pipeline's per-shard classifiers). Prefix-level tallies sum across
// partitions; origin ASes and AS paths are global distinct-counts, so the
// partial keeps the sets and MergeCensuses takes the union.
//
// Origins and Paths are bitsets: ASNs are 16-bit, and PathIDs are dense in
// PathTab — the classifier's path table, or the fresh one a RIB census
// interns into. IDs from different partials are not comparable; MergeCensuses
// unions them by remapping every partial's IDs through one fresh table (the
// per-shard ID-remap contract). The zero value with PathTab set is an empty
// census.
type PartialCensus struct {
	Prefixes   int
	Multihomed int
	Origins    bitSet
	Paths      bitSet
	PathTab    *bgp.PathTable
}

// bitSet is a set of small non-negative integers, one bit each.
type bitSet []uint64

// grow extends the set to at least n words.
func (s *bitSet) grow(n int) {
	if n > len(*s) {
		*s = append(*s, make(bitSet, n-len(*s))...)
	}
}

// add puts i in the set.
func (s *bitSet) add(i uint32) {
	s.grow(int(i>>6) + 1)
	(*s)[i>>6] |= 1 << (i & 63)
}

// or adds every member of t to the set.
func (s *bitSet) or(t bitSet) {
	s.grow(len(t))
	for w, x := range t {
		(*s)[w] |= x
	}
}

// count returns the number of members.
func (s bitSet) count() int {
	n := 0
	for _, x := range s {
		n += bits.OnesCount64(x)
	}
	return n
}

// each calls f with every member, in ascending order.
func (s bitSet) each(f func(uint32)) {
	for w, x := range s {
		for ; x != 0; x &= x - 1 {
			f(uint32(w<<6 | bits.TrailingZeros64(x)))
		}
	}
}

// TakePartialCensus computes the mergeable census of this table, interning
// its candidates' AS paths into a fresh path table as it walks: only a
// census pays for path IDs, not every Update.
func (r *RIB) TakePartialCensus() PartialCensus {
	pc := PartialCensus{PathTab: bgp.NewPathTable()}
	r.walk(func(_ netaddr.Prefix, st *prefixState) bool {
		AddPrefix(&pc, st.candidates, func(e *entry) (bgp.ASPath, bgp.PathID, bool) {
			return e.attrs.Path, pc.PathTab.ID(e.attrs.Path), true
		})
		return true
	})
	return pc
}

// AddPrefix folds one prefix's routes into pc: route reads each element's
// AS path, the path's ID in pc.PathTab, and whether the route is live. A
// prefix with no live route is not counted. One counts as multihomed when
// its live routes traverse at least two distinct neighboring ASes or two
// distinct origin ASes — i.e. the destination is reachable over more than
// one provider and the prefix cannot be aggregated away. RIB and
// core.Classifier both count through it, so the census is defined once.
func AddPrefix[R any](pc *PartialCensus, routes []R, route func(*R) (bgp.ASPath, bgp.PathID, bool)) {
	var first, origin bgp.ASN
	live, haveFirst, haveOrigin, multihomed := false, false, false, false
	for i := range routes {
		path, id, ok := route(&routes[i])
		if !ok {
			continue
		}
		live = true
		if f, ok := path.First(); ok {
			multihomed = multihomed || haveFirst && f != first
			first, haveFirst = f, true
		}
		if o, ok := path.Origin(); ok {
			multihomed = multihomed || haveOrigin && o != origin
			origin, haveOrigin = o, true
			pc.Origins.add(uint32(o))
		}
		pc.Paths.add(uint32(id))
	}
	if live {
		pc.Prefixes++
	}
	if multihomed {
		pc.Multihomed++
	}
}

// MergeCensuses combines partial censuses of disjoint prefix partitions into
// the Census the undivided table would have produced: prefix counts sum,
// origin sets union, and each partial's local PathIDs are remapped through
// one fresh PathTable whose final size is the global distinct-path count —
// unless every partial shares one table (an in-place pipeline, one
// RIB.TakeCensus), whose IDs union as they are. Because interning is content-addressed, the
// remap is order-independent: any merge order of any partition of the same
// table yields the same Census.
func MergeCensuses(parts ...PartialCensus) Census {
	var c Census
	shared := true
	for _, pc := range parts {
		shared = shared && pc.PathTab == parts[0].PathTab
	}
	var origins, ids bitSet
	merged := bgp.NewPathTable()
	for _, pc := range parts {
		c.Prefixes += pc.Prefixes
		c.Multihomed += pc.Multihomed
		origins.or(pc.Origins)
		switch {
		case shared:
			ids.or(pc.Paths)
		case pc.PathTab != nil:
			pc.Paths.each(func(id uint32) { merged.ID(pc.PathTab.Lookup(bgp.PathID(id))) })
		}
	}
	c.OriginASes = origins.count()
	c.UniquePaths = ids.count() + merged.Len()
	return c
}
