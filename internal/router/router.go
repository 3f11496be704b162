// Package router models a 1996-era Internet border router as a full BGP
// speaker: a RIB fed by peering sessions, the decision process, route
// propagation with AS-path prepending, and — central to the paper's §3 — a
// processing model of the route-caching architecture whose CPU starvation
// under update load delays keepalives, drops peering sessions, and at the
// extreme crashes the router, igniting route flap storms.
package router

import (
	"fmt"
	"time"

	"instability/internal/bgp"
	"instability/internal/damping"
	"instability/internal/events"
	"instability/internal/netaddr"
	"instability/internal/policy"
	"instability/internal/rib"
	"instability/internal/session"
)

// Architecture selects the forwarding design.
type Architecture int

// Forwarding architectures.
const (
	// RouteCache is the classic design: interface cards hold a route cache;
	// every best-route change invalidates entries and sustained instability
	// causes cache-miss storms handled by the central CPU.
	RouteCache Architecture = iota
	// FullTable is the newer design holding the complete table in forwarding
	// memory; updates do not disturb the fast path.
	FullTable
)

// CPUModel parameterizes the router's processing capacity.
type CPUModel struct {
	// PerUpdate is the CPU time consumed by one prefix update (policy
	// evaluation, table write).
	PerUpdate time.Duration
	// PerCacheMiss is the extra CPU time per forwarding cache miss caused by
	// an invalidation (RouteCache architecture only).
	PerCacheMiss time.Duration
	// CrashBacklog is the queued-work level at which the router becomes
	// completely unresponsive (the paper's informal experiments crashed a
	// high-end router at ~300 updates/second).
	CrashBacklog time.Duration
	// RebootTime is how long a crashed router stays down.
	RebootTime time.Duration
}

// DefaultCPU returns a model calibrated so that a sustained rate of about
// 300 updates/second exceeds capacity and crashes the router, matching the
// paper's §6 observation.
func DefaultCPU() CPUModel {
	return CPUModel{
		PerUpdate:    3500 * time.Microsecond, // ~285 updates/s capacity
		PerCacheMiss: 200 * time.Microsecond,
		CrashBacklog: 8 * time.Second,
		RebootTime:   3 * time.Minute,
	}
}

// Config parameterizes a router node.
type Config struct {
	AS   bgp.ASN
	ID   netaddr.Addr
	Arch Architecture
	CPU  CPUModel
	// Session is the vendor profile used for every peering session
	// (stateless vs stateful, jittered vs unjittered MRAI).
	Session session.Config
	// Damping, when non-nil, applies route flap damping to received routes.
	Damping *damping.Config
	// NextHopSelf is the next-hop address written into propagated routes.
	// Defaults to ID.
	NextHopSelf netaddr.Addr
	// Transparent propagates routes without prepending the local AS or
	// rewriting the next hop — the route-server behavior, which relays
	// post-policy routes on behalf of its clients.
	Transparent bool
	// Tap, when set, observes every received UPDATE before processing —
	// the collector instrumentation point.
	Tap func(from rib.PeerID, u bgp.Update)
	// PeerState, when set, observes session establishment and loss.
	PeerState func(peer rib.PeerID, up bool)
}

// Metrics counts the model's observable effects.
type Metrics struct {
	UpdatesProcessed   int
	CacheInvalidations int
	Crashes            int
	SessionDrops       int
	DampedUpdates      int
}

// Router is one node. All methods must be called from the simulator loop.
type Router struct {
	sim *events.Sim
	cfg Config
	rib *rib.RIB

	peers map[rib.PeerID]*neighbor

	originated map[netaddr.Prefix]bgp.Attrs

	// aggregates holds the configured supernet aggregations.
	aggregates map[netaddr.Prefix]*aggregateState

	damper *damping.Damper[dampKey]
	// suppressed holds the most recent announcement for each damped route,
	// installed when the penalty decays below the reuse threshold (RFC 2439
	// keeps suppressed routes on a reuse list rather than discarding them).
	suppressed map[dampKey]bgp.Attrs

	// Processing backlog model.
	backlog   time.Duration
	lastDrain time.Time
	crashed   bool
	metrics   Metrics

	// onCrash hooks let transports tear themselves down when the router
	// becomes unresponsive.
	onCrash []func()
}

type dampKey struct {
	peer   rib.PeerID
	prefix netaddr.Prefix
}

type neighbor struct {
	id   rib.PeerID
	sess *session.Peer
	// imp filters and rewrites routes learned from this peer; exp does the
	// same for routes advertised to it.
	imp, exp *policy.Policy
}

// New constructs a router on the simulator.
func New(sim *events.Sim, cfg Config) *Router {
	if cfg.NextHopSelf == 0 {
		cfg.NextHopSelf = cfg.ID
	}
	if cfg.CPU == (CPUModel{}) {
		cfg.CPU = DefaultCPU()
	}
	cfg.Session.LocalAS = cfg.AS
	cfg.Session.LocalID = cfg.ID
	r := &Router{
		sim:        sim,
		cfg:        cfg,
		rib:        rib.New(cfg.AS),
		peers:      make(map[rib.PeerID]*neighbor),
		originated: make(map[netaddr.Prefix]bgp.Attrs),
		lastDrain:  sim.Now(),
	}
	if cfg.Damping != nil {
		r.damper = damping.New[dampKey](*cfg.Damping)
		r.suppressed = make(map[dampKey]bgp.Attrs)
	}
	return r
}

// AS returns the router's autonomous system number.
func (r *Router) AS() bgp.ASN { return r.cfg.AS }

// ID returns the router's BGP identifier.
func (r *Router) ID() netaddr.Addr { return r.cfg.ID }

// RIB exposes the routing table for inspection.
func (r *Router) RIB() *rib.RIB { return r.rib }

// Metrics returns a copy of the router's counters.
func (r *Router) Metrics() Metrics { return r.metrics }

// Crashed reports whether the router is currently down.
func (r *Router) Crashed() bool { return r.crashed }

// AddPeer creates the session endpoint for a neighbor. The returned Peer
// must be wired to a transport (its Callbacks.Send is supplied here via the
// send argument) and started by the caller.
func (r *Router) AddPeer(peerAS bgp.ASN, peerID netaddr.Addr, send func(bgp.Message), connect, closeTransport func()) *session.Peer {
	id := rib.PeerID{AS: peerAS, ID: peerID}
	n := &neighbor{id: id}
	cfg := r.cfg.Session
	clock := session.SimClock(r.sim, fmt.Sprintf("router/%d/%v", r.cfg.AS, peerID))
	n.sess = session.New(cfg, clock, session.Callbacks{
		Send:           send,
		Connect:        connect,
		CloseTransport: closeTransport,
		Established:    func() { r.onEstablished(n) },
		Down:           func(err error) { r.onDown(n, err) },
		Update:         func(u bgp.Update) { r.onUpdate(n, u) },
		KeepaliveDelay: r.keepaliveDelay,
	})
	r.peers[id] = n
	return n.sess
}

// SetExportPolicy installs the export policy for a neighbor: every route
// advertised to the peer passes through it first; rejected routes are
// withheld (and withdrawn if previously advertised).
func (r *Router) SetExportPolicy(peerAS bgp.ASN, peerID netaddr.Addr, p *policy.Policy) {
	if n := r.peers[rib.PeerID{AS: peerAS, ID: peerID}]; n != nil {
		n.exp = p
	}
}

// Session returns the session endpoint for a neighbor, if present.
func (r *Router) Session(peerAS bgp.ASN, peerID netaddr.Addr) *session.Peer {
	n := r.peers[rib.PeerID{AS: peerAS, ID: peerID}]
	if n == nil {
		return nil
	}
	return n.sess
}

// Originate injects a locally originated prefix (a customer network or the
// router's own aggregate) and propagates it to all peers.
func (r *Router) Originate(prefix netaddr.Prefix, origin bgp.OriginCode) {
	attrs := bgp.Attrs{Origin: origin, Path: bgp.ASPath{}, NextHop: r.cfg.NextHopSelf}
	r.originated[prefix] = attrs
	self := rib.PeerID{AS: r.cfg.AS, ID: r.cfg.ID}
	d := r.rib.Update(self, prefix, attrs)
	r.propagate(d, nil)
}

// WithdrawOrigin removes a locally originated prefix.
func (r *Router) WithdrawOrigin(prefix netaddr.Prefix) {
	delete(r.originated, prefix)
	self := rib.PeerID{AS: r.cfg.AS, ID: r.cfg.ID}
	d := r.rib.Withdraw(self, prefix)
	r.propagate(d, nil)
}

// onEstablished dumps the full table to a newly established peer — the
// "large state dump transmissions" of a recovering session.
func (r *Router) onEstablished(n *neighbor) {
	if r.cfg.PeerState != nil {
		r.cfg.PeerState(n.id, true)
	}
	r.rib.WalkBest(func(p netaddr.Prefix, attrs bgp.Attrs, from rib.PeerID) bool {
		if from == n.id { // no re-advertisement back to the source
			return true
		}
		if st := r.aggregateFor(p); st != nil && st.cfg.SuppressComponents {
			return true // hidden behind the aggregate
		}
		out := r.exportAttrs(attrs)
		if n.exp != nil {
			var ok bool
			if out, ok = n.exp.Apply(p, out); !ok {
				return true
			}
		}
		n.sess.Announce(p, out)
		return true
	})
}

// onDown handles loss of a peering session: all routes learned from the
// neighbor are withdrawn and the changes flood to the remaining peers.
func (r *Router) onDown(n *neighbor, _ error) {
	if r.cfg.PeerState != nil {
		r.cfg.PeerState(n.id, false)
	}
	r.metrics.SessionDrops++
	decisions := r.rib.WithdrawPeer(n.id)
	for _, d := range decisions {
		if r.noteComponent(d) {
			continue
		}
		r.propagate(d, &n.id)
	}
}

// onUpdate applies a received UPDATE: withdrawals and announcements feed the
// RIB; best-route changes propagate to the other peers; the processing cost
// feeds the CPU model.
func (r *Router) onUpdate(n *neighbor, u bgp.Update) {
	if r.crashed {
		return
	}
	if r.cfg.Tap != nil {
		r.cfg.Tap(n.id, u)
	}
	cost := time.Duration(len(u.Withdrawn)+len(u.Announced)) * r.cfg.CPU.PerUpdate
	for _, p := range u.Withdrawn {
		if r.damper != nil {
			key := dampKey{peer: n.id, prefix: p}
			r.damper.Record(key, damping.EventWithdraw, r.sim.Now())
			delete(r.suppressed, key)
		}
		d := r.rib.Withdraw(n.id, p)
		r.noteDecision(d, &cost)
		if r.noteComponent(d) {
			// The component sits under an active aggregate: its instability
			// stays inside this AS.
			r.metrics.UpdatesProcessed++
			continue
		}
		if r.cfg.Session.Stateless {
			// The stateless implementation relays a withdrawal for every
			// explicitly withdrawn prefix to every peer — including the one
			// it came from and peers that never heard the announcement. The
			// session layer sends these unconditionally, which is the WWDup
			// generator the paper traced to one vendor.
			r.broadcastWithdraw(p)
			if d.HasBest {
				// An alternate path exists; re-announce it after the
				// spurious withdrawal.
				r.announceToAll(d)
			}
		} else {
			r.propagate(d, &n.id)
		}
		r.metrics.UpdatesProcessed++
	}
	for _, p := range u.Announced {
		attrs := u.Attrs
		if n.imp != nil {
			var ok bool
			if attrs, ok = n.imp.Apply(p, u.Attrs); !ok {
				// Import-filtered: the candidate never enters the RIB (and
				// any stale candidate from this peer is cleared).
				d := r.rib.Withdraw(n.id, p)
				r.noteDecision(d, &cost)
				r.propagate(d, &n.id)
				r.metrics.UpdatesProcessed++
				continue
			}
		}
		if r.damper != nil {
			key := dampKey{peer: n.id, prefix: p}
			ev := damping.EventReannounce
			if prev, _, ok := r.rib.Best(p); ok && !prev.ForwardingEqual(&u.Attrs) {
				ev = damping.EventAttrChange
			}
			if r.damper.Record(key, ev, r.sim.Now()) {
				r.metrics.DampedUpdates++
				r.suppressed[key] = attrs
				r.scheduleReuse(key)
				continue
			}
			delete(r.suppressed, key)
		}
		d := r.rib.Update(n.id, p, attrs)
		r.noteDecision(d, &cost)
		if r.noteComponent(d) {
			r.metrics.UpdatesProcessed++
			continue
		}
		r.propagate(d, &n.id)
		r.metrics.UpdatesProcessed++
	}
	r.charge(cost)
}

// noteDecision applies the cache-architecture cost of a best-route change.
func (r *Router) noteDecision(d rib.Decision, cost *time.Duration) {
	if r.cfg.Arch == RouteCache && d.Changed() {
		r.metrics.CacheInvalidations++
		*cost += r.cfg.CPU.PerCacheMiss
	}
}

// propagate forwards a best-route change to every peer. The peer the new
// best was learned from cannot be sent its own route back; it receives a
// withdrawal instead (clearing whatever we advertised it before — leaving it
// stale would seed ghost routes around topology cycles). A stateless vendor
// additionally emits explicit withdrawals for implicitly withdrawn
// (replaced) routes toward every peer, seeding WWDups downstream.
func (r *Router) propagate(d rib.Decision, _ *rib.PeerID) {
	if !d.Changed() && !d.PolicyChanged() {
		return
	}
	if r.cfg.Session.Stateless && d.HadBest {
		// The stateless implementation makes every implicit withdrawal
		// explicit, toward every peer.
		r.broadcastWithdraw(d.Prefix)
	}
	if d.HasBest {
		r.announceToAll(d)
		return
	}
	if !r.cfg.Session.Stateless {
		for _, n := range r.peers {
			if n.sess.State() == session.Established {
				n.sess.Withdraw(d.Prefix)
			}
		}
	}
}

// broadcastWithdraw queues a withdrawal of prefix toward every established
// peer (stateless vendor behavior).
func (r *Router) broadcastWithdraw(prefix netaddr.Prefix) {
	for _, n := range r.peers {
		if n.sess.State() == session.Established {
			n.sess.Withdraw(prefix)
		}
	}
}

// announceToAll queues the decision's new best route toward every
// established peer, applying each peer's export policy. The peer the best
// was learned from, and any peer whose policy rejects the route, receive a
// withdrawal instead (the session's Adj-RIB-Out suppresses it if that peer
// never held a route from us).
func (r *Router) announceToAll(d rib.Decision) {
	for id, n := range r.peers {
		if n.sess.State() != session.Established {
			continue
		}
		if id == d.NewPeer {
			// No advertising a route back to its source; clear anything we
			// told this peer previously.
			n.sess.Withdraw(d.Prefix)
			continue
		}
		out := r.exportAttrs(d.New)
		if n.exp != nil {
			var ok bool
			if out, ok = n.exp.Apply(d.Prefix, out); !ok {
				n.sess.Withdraw(d.Prefix)
				continue
			}
		}
		n.sess.Announce(d.Prefix, out)
	}
}

// scheduleReuse arranges for a suppressed route to be installed once its
// penalty decays below the reuse threshold.
func (r *Router) scheduleReuse(key dampKey) {
	reuse, ok := r.damper.ReuseTime(key, r.sim.Now())
	if !ok {
		return
	}
	r.sim.ScheduleAt(reuse.Add(time.Second), func() {
		attrs, held := r.suppressed[key]
		if !held {
			return
		}
		if r.damper.Suppressed(key, r.sim.Now()) {
			r.scheduleReuse(key) // penalty refreshed in the meantime
			return
		}
		delete(r.suppressed, key)
		d := r.rib.Update(key.peer, key.prefix, attrs)
		r.propagate(d, &key.peer)
	})
}

// OnCrash registers a hook invoked when the router crashes (used by links to
// take the transport down).
func (r *Router) OnCrash(fn func()) { r.onCrash = append(r.onCrash, fn) }

// exportAttrs rewrites attributes for external propagation: prepend our AS,
// set next-hop self, strip internal-only attributes.
func (r *Router) exportAttrs(a bgp.Attrs) bgp.Attrs {
	out := a
	if !r.cfg.Transparent {
		out.Path = a.Path.Prepend(r.cfg.AS)
		out.NextHop = r.cfg.NextHopSelf
	}
	out.HasLocalPref = false
	out.LocalPref = 0
	return out
}

// charge adds work to the CPU backlog and crashes the router if it exceeds
// the crash threshold.
func (r *Router) charge(cost time.Duration) {
	r.drain()
	r.backlog += cost
	if r.backlog > r.cfg.CPU.CrashBacklog && !r.crashed {
		r.crash()
	}
}

// drain credits elapsed virtual time against the backlog.
func (r *Router) drain() {
	now := r.sim.Now()
	elapsed := now.Sub(r.lastDrain)
	r.lastDrain = now
	r.backlog -= elapsed
	if r.backlog < 0 {
		r.backlog = 0
	}
}

// keepaliveDelay is handed to each session: an overloaded router delays its
// keepalives by the queueing backlog, which is precisely how peers come to
// flag it as down.
func (r *Router) keepaliveDelay() time.Duration {
	r.drain()
	return r.backlog
}

// crash makes the router unresponsive: every session drops, and after
// RebootTime the router restarts and re-initiates its sessions.
func (r *Router) crash() {
	r.crashed = true
	r.metrics.Crashes++
	r.backlog = 0
	for _, n := range r.peers {
		n.sess.TransportDown(errCrashed)
	}
	for _, fn := range r.onCrash {
		fn()
	}
	r.sim.Schedule(r.cfg.CPU.RebootTime, func() {
		r.crashed = false
		// Re-originate local prefixes; sessions restart via their own
		// ConnectRetry machinery.
		self := rib.PeerID{AS: r.cfg.AS, ID: r.cfg.ID}
		for p, a := range r.originated {
			r.rib.Update(self, p, a)
		}
	})
}

var errCrashed = fmt.Errorf("router: crashed under update load")
