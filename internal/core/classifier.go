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

// PrefixASOf extracts the Prefix+AS aggregation key from a record.
func PrefixASOf(rec collector.Record) PrefixAS {
	return PrefixAS{Prefix: rec.Prefix, AS: rec.PeerAS}
}

// Classifier assigns classes to a stream of records. It must see each
// collection point's records in timestamp order.
type Classifier struct {
	// routes is the route table, keyed by prefix: one slot per peer ever
	// heard for the prefix. A record costs one map probe and a scan of its
	// prefix's few peers, and a table census walks the slots in place.
	routes map[netaddr.Prefix][]routeState
	// tab interns every announcement's attribute tuple. The duplicate-
	// dominated stream means almost every lookup is a hit returning a shared
	// handle; the table is private to this classifier, so the parallel
	// pipeline's per-shard classifiers never share interner state.
	tab *intern.Table
}

// NewClassifier returns an empty classifier.
func NewClassifier() *Classifier {
	return &Classifier{
		routes: make(map[netaddr.Prefix][]routeState),
		tab:    intern.New(),
	}
}

// Interner exposes the classifier's private attribute table (hit-rate
// accounting, tests).
func (c *Classifier) Interner() *intern.Table { return c.tab }

// Classify processes one record and returns its event.
func (c *Classifier) Classify(rec collector.Record) Event {
	ev := Event{Record: rec, Class: Other}
	switch rec.Type {
	case collector.Announce, collector.Withdraw:
	default:
		// Session records carry no route state; the study's logs likewise
		// interleave state messages that the update taxonomy ignores.
		return ev
	}
	peer := PeerKeyOf(rec)
	rs := c.routes[rec.Prefix]
	i := 0
	for i < len(rs) && rs[i].peer != peer {
		i++
	}
	if i == len(rs) {
		rs = append(rs, routeState{peer: peer})
		c.routes[rec.Prefix] = rs
	}
	st := &rs[i]
	ev.route = st

	switch rec.Type {
	case collector.Announce:
		// One intern lookup replaces every deep comparison below: handle
		// pointer equality is PolicyEqual, (NextHop, PathID) equality is
		// ForwardingEqual.
		h := c.tab.Attrs(rec.Attrs)
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
	return ev
}

// ActiveByPeer returns the number of prefixes each peer currently
// announces: each peer's share of the default-free table. Peers with none
// are absent.
func (c *Classifier) ActiveByPeer() map[PeerKey]int {
	out := make(map[PeerKey]int)
	for _, rs := range c.routes {
		for i := range rs {
			if rs[i].announced {
				out[rs[i].peer]++
			}
		}
	}
	return out
}

// PartialCensus takes the routing-table census of the announced routes,
// with path IDs from the interner's path table. It counts what the
// collector heard: unlike rib.RIB, no route is refused for a loop through
// the local AS, so a path containing AS 0 counts here where a rib.New(0)
// table keeps the peer's previous route instead.
func (c *Classifier) PartialCensus() rib.PartialCensus {
	pc := rib.PartialCensus{PathTab: c.tab.Paths()}
	for _, rs := range c.routes {
		rib.AddPrefix(&pc, rs, func(st *routeState) (bgp.ASPath, bgp.PathID, bool) {
			if !st.announced {
				return bgp.ASPath{}, 0, false
			}
			return st.last.Attrs().Path, st.last.PathID, true
		})
	}
	return pc
}
