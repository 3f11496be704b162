package core

import (
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/intern"
	"instability/internal/netaddr"
	"instability/internal/rib"
)

// PeerKey identifies the peer a record was heard from.
type PeerKey struct {
	AS   bgp.ASN
	Addr netaddr.Addr
}

// PrefixAS is the paper's §5.2 aggregation unit: "a set of routes that an AS
// announces for a given destination — more specific than a prefix, more
// general than a route."
type PrefixAS struct {
	Prefix netaddr.Prefix
	AS     bgp.ASN
}

// routeState is one peer's slot in one prefix's routes: the classifier's
// history for that (peer, prefix) key, and — while announced — the route
// the peer has in the collector's Adj-RIB-In, which the table census counts.
// Distinct routers of one AS are distinct peers, as in the route-server logs.
type routeState struct {
	peer      PeerKey
	announced bool
	ever      bool
	// peerIdx is peer's index in the classifier's peers, for counting by
	// peer without a map write per route.
	peerIdx uint32
	// last is the interned handle of the previous announcement's attributes:
	// the AADup/WADup comparisons against it are pointer and integer
	// compares, and the state holds no per-key copy of path or community
	// slices.
	last *intern.Handle
	// lastAt is the time of the previous event of any class, for
	// inter-arrival analysis.
	lastAt time.Time
	// day is the DayStats an accumulator last added this route's event to,
	// and peerDay and prefixAS the route's counters there (Accumulator.Add).
	day      *DayStats
	peerDay  *PeerDay
	prefixAS *[NumClasses]int
}

// Event is the classifier's verdict on one record.
type Event struct {
	Record collector.Record
	Class  Class
	// PolicyShift marks an AADup whose forwarding tuple was unchanged but
	// whose other attributes (MED, communities, ...) differed — the paper's
	// routing policy fluctuation.
	PolicyShift bool
	// SinceAny is the interval since the previous event of any class for
	// this (peer, prefix); zero for the first.
	SinceAny time.Duration

	// route is Record's slot in the classifier, nil for session records and
	// hand-built events; a stale copy (the slots moved) names the same route.
	route *routeState
}

// PeerKeyOf extracts the peer identity from a record.
func PeerKeyOf(rec collector.Record) PeerKey {
	return PeerKey{AS: rec.PeerAS, Addr: rec.PeerAddr}
}

// Classifier assigns classes to a stream of records. It must see each
// collection point's records in timestamp order.
type Classifier struct {
	// routes is the route table, keyed by packed prefix (Prefix.Key): one
	// slot per peer ever heard for the prefix. A record costs one map probe
	// on a one-word key and a scan of its prefix's few peers, and a table
	// census walks the slots in place.
	routes map[uint64][]routeState
	// peers lists every peer a slot names, in first-seen order, and
	// peerIdx maps a peer to its index there (routeState.peerIdx). Only a
	// new slot probes the map.
	peers   []PeerKey
	peerIdx map[PeerKey]uint32
	// tab interns every announcement's attribute tuple. The duplicate-
	// dominated stream means almost every lookup is a hit returning a shared
	// handle; the table is private to this classifier, so the hot path
	// takes no lock.
	tab *intern.Table
}

// NewClassifier returns an empty classifier.
func NewClassifier() *Classifier {
	return &Classifier{
		routes:  make(map[uint64][]routeState),
		peerIdx: make(map[PeerKey]uint32),
		tab:     intern.New(),
	}
}

// Interner exposes the classifier's private attribute table (hit-rate
// accounting, tests).
func (c *Classifier) Interner() *intern.Table { return c.tab }

// Classify processes one record and returns its event.
func (c *Classifier) Classify(rec collector.Record) Event {
	ev := Event{Record: rec}
	c.ClassifyEvent(&ev)
	return ev
}

// ClassifyEvent classifies ev.Record and sets ev's verdict in place: Class,
// PolicyShift, SinceAny and its route slot. ev must hold its Record only,
// every other field zero. It keeps no reference to ev.
func (c *Classifier) ClassifyEvent(ev *Event) {
	rec := &ev.Record
	switch rec.Type {
	case collector.Announce, collector.Withdraw:
	default:
		// Session records carry no route state; the study's logs likewise
		// interleave state messages that the update taxonomy ignores.
		return
	}
	peer, key := PeerKey{AS: rec.PeerAS, Addr: rec.PeerAddr}, rec.Prefix.Key()
	rs := c.routes[key]
	i := 0
	for i < len(rs) && rs[i].peer != peer {
		i++
	}
	if i == len(rs) {
		rs = append(rs, routeState{peer: peer, peerIdx: c.peerIndex(peer)})
		c.routes[key] = rs
	}
	st := &rs[i]
	ev.route = st

	switch rec.Type {
	case collector.Announce:
		// One intern lookup replaces every deep comparison below: handle
		// pointer equality is PolicyEqual, (NextHop, PathID) equality is
		// ForwardingEqual. Most announcements repeat the route's last
		// tuple, which AttrsAfter resolves without hashing.
		h := c.tab.AttrsAfter(st.last, &rec.Attrs)
		switch {
		case st.announced:
			if intern.ForwardingEqual(st.last, h) {
				ev.Class = AADup
				ev.PolicyShift = st.last != h
			} else {
				ev.Class = AADiff
			}
		case st.ever:
			if intern.ForwardingEqual(st.last, h) {
				ev.Class = WADup
			} else {
				ev.Class = WADiff
			}
		default:
			ev.Class = Other // first announcement ever seen
		}
		st.announced, st.ever, st.last = true, true, h

	case collector.Withdraw:
		if st.announced {
			ev.Class = Other // ordinary withdrawal of a live route
			st.announced = false
		} else {
			ev.Class = WWDup
		}
	}

	// Inter-arrival bookkeeping.
	if !st.lastAt.IsZero() {
		ev.SinceAny = rec.Time.Sub(st.lastAt)
	}
	st.lastAt = rec.Time
}

// peerIndex returns peer's index in c.peers, adding it on first sight.
func (c *Classifier) peerIndex(peer PeerKey) uint32 {
	i, ok := c.peerIdx[peer]
	if !ok {
		i = uint32(len(c.peers))
		c.peers = append(c.peers, peer)
		c.peerIdx[peer] = i
	}
	return i
}

// ActiveByPeer returns the number of prefixes each peer currently
// announces: each peer's share of the default-free table. Peers with none
// are absent.
func (c *Classifier) ActiveByPeer() map[PeerKey]int {
	counts := make([]int, len(c.peers))
	for _, rs := range c.routes {
		for i := range rs {
			if rs[i].announced {
				counts[rs[i].peerIdx]++
			}
		}
	}
	out := make(map[PeerKey]int)
	for i, n := range counts {
		if n > 0 {
			out[c.peers[i]] = n
		}
	}
	return out
}

// Census takes the routing-table census of the announced routes, with path
// IDs from the interner's path table. It counts what the collector heard:
// unlike rib.RIB, no route is refused for a loop through the local AS, so a
// path containing AS 0 counts here where a rib.New(0) table keeps the peer's
// previous route instead.
func (c *Classifier) Census() rib.Census {
	var t rib.CensusTally
	for _, rs := range c.routes {
		rib.AddPrefix(&t, rs, func(st *routeState) (bgp.ASPath, bgp.PathID, bool) {
			if !st.announced {
				return bgp.ASPath{}, 0, false
			}
			return st.last.Path(), st.last.PathID, true
		})
	}
	return t.Census()
}
