// Package igp implements a small link-state interior gateway protocol in the
// OSPF mold: routers flood link-state advertisements describing their
// adjacencies and redistributed external routes, every router converges on an
// identical link-state database, and shortest paths come from Dijkstra's
// algorithm. LSAs are refreshed on the era's customary 30-second-multiple
// timers.
//
// The package exists to make the paper's §4.2 IGP/BGP hypothesis executable:
// "the conversion between protocols is lossy, path information is not
// preserved across protocols and routers will not be able to detect an
// inter-protocol routing update oscillation. This type of interaction is
// highly suspect as most IGP protocols utilize internal timers based on some
// multiple of 30 seconds." The DomainRedistributor in this package scans
// between two routing domains on exactly such a timer; redistribute_test.go
// demonstrates both the ghost-route loop the tag filter prevents and the
// 30-second quantization of redistributed updates.
package igp

import (
	"fmt"
	"time"

	"instability/internal/events"
	"instability/internal/netaddr"
)

// NodeID identifies a router within the flooding domain.
type NodeID uint32

// External is a redistributed route carried in an LSA.
type External struct {
	// Metric is the external cost (type-2 semantics: dominates path cost).
	Metric uint32
	// Tag is the opaque route tag (RFC 1403-style) used to mark routes
	// injected from BGP so they are not re-exported — the loop-prevention
	// measure whose absence the experiment demonstrates.
	Tag uint32
}

// LSA is one router's link-state advertisement.
type LSA struct {
	Origin NodeID
	Seq    uint64
	// Links lists adjacency costs to neighbor routers.
	Links map[NodeID]uint32
	// Externals lists routes this router redistributes into the IGP.
	Externals map[netaddr.Prefix]External
}

func (l *LSA) clone() *LSA {
	c := &LSA{Origin: l.Origin, Seq: l.Seq,
		Links:     make(map[NodeID]uint32, len(l.Links)),
		Externals: make(map[netaddr.Prefix]External, len(l.Externals)),
	}
	for k, v := range l.Links {
		c.Links[k] = v
	}
	for k, v := range l.Externals {
		c.Externals[k] = v
	}
	return c
}

// Route is a computed external route at a node.
type Route struct {
	Prefix netaddr.Prefix
	// Origin is the router that injected the route.
	Origin NodeID
	// Metric is the total cost (path to origin + external metric).
	Metric uint32
	Tag    uint32
}

// Network is one IGP flooding domain (an autonomous system's interior).
type Network struct {
	sim   *events.Sim
	nodes map[NodeID]*Node
	// FloodDelay is the LSA propagation delay between any two routers.
	FloodDelay time.Duration
	// SPFDelay is the hold-down before recomputing routes after an LSDB
	// change (coalesces bursts).
	SPFDelay time.Duration
	// RefreshPeriod re-floods every LSA periodically (30 s, unjittered, as
	// the era's implementations did).
	RefreshPeriod time.Duration
	// Floods counts LSA deliveries, a load metric.
	Floods int
}

// NewNetwork creates a flooding domain with conventional timers.
func NewNetwork(sim *events.Sim) *Network {
	n := &Network{
		sim:           sim,
		nodes:         make(map[NodeID]*Node),
		FloodDelay:    50 * time.Millisecond,
		SPFDelay:      200 * time.Millisecond,
		RefreshPeriod: 30 * time.Second,
	}
	return n
}

// Node is one router in the domain.
type Node struct {
	net  *Network
	id   NodeID
	lsa  *LSA // own LSA (authoritative copy)
	lsdb map[NodeID]*LSA

	// routes is the post-SPF external routing table.
	routes map[netaddr.Prefix]Route
	// reach holds shortest-path costs to every reachable router.
	reach map[NodeID]uint32

	spfPending bool
	// OnChange, when set, fires after an SPF run that changed the external
	// table; added lists new/changed routes, removed lists lost prefixes.
	OnChange func(added []Route, removed []netaddr.Prefix)
}

// AddNode registers a router and starts its refresh timer.
func (n *Network) AddNode(id NodeID) *Node {
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("igp: duplicate node %d", id))
	}
	node := &Node{
		net:    n,
		id:     id,
		lsa:    &LSA{Origin: id, Seq: 1, Links: map[NodeID]uint32{}, Externals: map[netaddr.Prefix]External{}},
		lsdb:   make(map[NodeID]*LSA),
		routes: make(map[netaddr.Prefix]Route),
		reach:  map[NodeID]uint32{id: 0},
	}
	node.lsdb[id] = node.lsa.clone()
	n.nodes[id] = node
	n.sim.Every(n.RefreshPeriod, func() { node.flood() })
	return node
}

// Node returns the router with the given id, or nil.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Link creates (or reprices) a bidirectional adjacency.
func (n *Network) Link(a, b NodeID, cost uint32) {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		panic("igp: link between unknown nodes")
	}
	na.lsa.Links[b] = cost
	nb.lsa.Links[a] = cost
	na.reoriginate()
	nb.reoriginate()
}

// ID returns the node's router id.
func (nd *Node) ID() NodeID { return nd.id }

// AnnounceExternal injects (or updates) a redistributed route.
func (nd *Node) AnnounceExternal(p netaddr.Prefix, ext External) {
	if cur, ok := nd.lsa.Externals[p]; ok && cur == ext {
		return
	}
	nd.lsa.Externals[p] = ext
	nd.reoriginate()
}

// WithdrawExternal removes a redistributed route.
func (nd *Node) WithdrawExternal(p netaddr.Prefix) {
	if _, ok := nd.lsa.Externals[p]; !ok {
		return
	}
	delete(nd.lsa.Externals, p)
	nd.reoriginate()
}

// Route returns the computed external route for p.
func (nd *Node) Route(p netaddr.Prefix) (Route, bool) {
	r, ok := nd.routes[p]
	return r, ok
}

// Routes returns a copy of the full external table.
func (nd *Node) Routes() map[netaddr.Prefix]Route {
	out := make(map[netaddr.Prefix]Route, len(nd.routes))
	for k, v := range nd.routes {
		out[k] = v
	}
	return out
}

// reoriginate bumps the node's LSA sequence and floods it.
func (nd *Node) reoriginate() {
	nd.lsa.Seq++
	nd.lsdb[nd.id] = nd.lsa.clone()
	nd.scheduleSPF()
	nd.flood()
}

// flood delivers the node's current LSA to every other router after the
// flood delay. (Flooding is modeled domain-wide rather than hop-by-hop; the
// LSDB convergence result is identical and the timing close enough for the
// protocols-interaction experiments.)
func (nd *Node) flood() {
	copyLSA := nd.lsa.clone()
	for id, other := range nd.net.nodes {
		if id == nd.id {
			continue
		}
		other := other
		nd.net.sim.Schedule(nd.net.FloodDelay, func() {
			nd.net.Floods++
			other.install(copyLSA)
		})
	}
}

// install applies a received LSA if newer.
func (nd *Node) install(l *LSA) {
	cur := nd.lsdb[l.Origin]
	if cur != nil && cur.Seq >= l.Seq {
		return
	}
	nd.lsdb[l.Origin] = l
	nd.scheduleSPF()
}

func (nd *Node) scheduleSPF() {
	if nd.spfPending {
		return
	}
	nd.spfPending = true
	nd.net.sim.Schedule(nd.net.SPFDelay, func() {
		nd.spfPending = false
		nd.runSPF()
	})
}

// runSPF recomputes shortest paths and the external table, firing OnChange
// with the delta.
func (nd *Node) runSPF() {
	// Dijkstra over the LSDB. Adjacencies must be advertised by both ends
	// to count (two-way connectivity check).
	dist := map[NodeID]uint32{nd.id: 0}
	visited := map[NodeID]bool{}
	for {
		var cur NodeID
		best := uint32(0)
		found := false
		for id, d := range dist {
			if !visited[id] && (!found || d < best) {
				cur, best, found = id, d, true
			}
		}
		if !found {
			break
		}
		visited[cur] = true
		lsa := nd.lsdb[cur]
		if lsa == nil {
			continue
		}
		for next, cost := range lsa.Links {
			nl := nd.lsdb[next]
			if nl == nil {
				continue
			}
			if _, twoWay := nl.Links[cur]; !twoWay {
				continue
			}
			if d, ok := dist[next]; !ok || best+cost < d {
				dist[next] = best + cost
			}
		}
	}
	nd.reach = dist

	// External routes: best (lowest metric, then lowest origin) among
	// reachable originators.
	newRoutes := make(map[netaddr.Prefix]Route)
	for origin, lsa := range nd.lsdb {
		d, reachable := dist[origin]
		if !reachable {
			continue
		}
		for p, ext := range lsa.Externals {
			cand := Route{Prefix: p, Origin: origin, Metric: d + ext.Metric, Tag: ext.Tag}
			if cur, ok := newRoutes[p]; !ok || cand.Metric < cur.Metric ||
				(cand.Metric == cur.Metric && cand.Origin < cur.Origin) {
				newRoutes[p] = cand
			}
		}
	}

	var added []Route
	var removed []netaddr.Prefix
	for p, r := range newRoutes {
		if old, ok := nd.routes[p]; !ok || old != r {
			added = append(added, r)
		}
	}
	for p := range nd.routes {
		if _, ok := newRoutes[p]; !ok {
			removed = append(removed, p)
		}
	}
	nd.routes = newRoutes
	if (len(added) > 0 || len(removed) > 0) && nd.OnChange != nil {
		nd.OnChange(added, removed)
	}
}
