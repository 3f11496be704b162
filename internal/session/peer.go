package session

import (
	"errors"
	"fmt"
	"time"

	"instability/internal/bgp"
	"instability/internal/intern"
	"instability/internal/netaddr"
)

// State is a BGP FSM state (RFC 1771 §8).
type State int

// FSM states.
const (
	Idle State = iota
	Connect
	Active
	OpenSent
	OpenConfirm
	Established
)

// String returns the RFC name of s.
func (s State) String() string {
	switch s {
	case Idle:
		return "Idle"
	case Connect:
		return "Connect"
	case Active:
		return "Active"
	case OpenSent:
		return "OpenSent"
	case OpenConfirm:
		return "OpenConfirm"
	case Established:
		return "Established"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Default protocol timer values.
const (
	DefaultHoldTime     = 180 * time.Second
	DefaultConnectRetry = 120 * time.Second
	openHoldTime        = 4 * time.Minute
)

// Config parameterizes one side of a peering session.
type Config struct {
	LocalAS bgp.ASN
	LocalID netaddr.Addr

	// HoldTime is the proposed hold time (default 180 s). The session uses
	// the minimum of both sides' proposals; keepalives go out at a third of
	// the negotiated value.
	HoldTime time.Duration

	// MRAI is the MinRouteAdvertisementInterval: outbound changes are
	// batched and flushed on this period (default 30 s). Zero flushes
	// immediately.
	MRAI time.Duration

	// MRAIJitter is the fractional jitter applied to each MRAI period.
	// Zero reproduces the unjittered vendor timer the paper implicates in
	// the 30-second periodicity and self-synchronization.
	MRAIJitter float64

	// Stateless selects the paper's "stateless BGP" implementation: the
	// router keeps no Adj-RIB-Out and transmits withdrawals to all peers for
	// every withdrawn prefix, announced to them or not.
	Stateless bool

	// CompareLastSent, in stateful mode, suppresses flushes that would
	// re-send exactly what the peer already holds (the post-fix vendor
	// software the paper describes deploying).
	CompareLastSent bool

	// ConnectRetry is the delay before re-initiating a failed session
	// (default 120 s).
	ConnectRetry time.Duration

	// Passive suppresses connection initiation; the peer waits for the
	// remote side (route-server collectors listen passively).
	Passive bool
}

func (c Config) withDefaults() Config {
	if c.HoldTime == 0 {
		c.HoldTime = DefaultHoldTime
	}
	if c.ConnectRetry == 0 {
		c.ConnectRetry = DefaultConnectRetry
	}
	return c
}

// Callbacks connect the FSM to its environment. Send and Connect must be
// non-nil before Start; the rest are optional.
type Callbacks struct {
	// Send transmits a marshaled-ready message toward the peer.
	Send func(bgp.Message)
	// Connect asks the environment to bring the transport up (ignored for
	// passive sessions). The environment later calls TransportUp or
	// TransportDown.
	Connect func()
	// CloseTransport tears the transport down.
	CloseTransport func()
	// Established fires when the session reaches Established.
	Established func()
	// Down fires when an established or establishing session fails.
	Down func(err error)
	// Update delivers a received UPDATE to the routing layer.
	Update func(u bgp.Update)
	// KeepaliveDelay, if set, returns extra delay added to each outbound
	// keepalive — the hook the router model uses to starve keepalives under
	// CPU overload, which is how route flap storms ignite.
	KeepaliveDelay func() time.Duration
}

// Stats counts session activity.
type Stats struct {
	MsgsSent, MsgsReceived       int
	UpdatesSent, UpdatesReceived int
	AnnSent, WdSent              int
	AnnReceived, WdReceived      int
	EstablishedCount, DropCount  int
	FlushCount                   int
}

// Peer is one endpoint of a BGP session. All methods must be called from a
// single serialization domain (the simulator loop, or under Runner's lock).
type Peer struct {
	cfg   Config
	clock Clock
	cb    Callbacks

	state    State
	holdTime time.Duration
	peerAS   bgp.ASN
	peerID   netaddr.Addr

	holdTimer    Canceler
	keepTimer    Canceler
	connectTimer Canceler
	mraiTimer    Canceler

	pendingAnn map[netaddr.Prefix]bgp.Attrs
	pendingWd  map[netaddr.Prefix]struct{}
	advertised map[netaddr.Prefix]bgp.Attrs
	// tab interns outbound attribute tuples so Flush groups announcements
	// into shared UPDATEs by handle identity instead of building a key
	// string per prefix per flush.
	tab *intern.Table

	stats Stats
	// generation invalidates stale timer callbacks after a reset.
	generation uint64
}

// New constructs a peer session endpoint.
func New(cfg Config, clock Clock, cb Callbacks) *Peer {
	if cb.Send == nil {
		panic("session: Callbacks.Send is required")
	}
	p := &Peer{
		cfg:        cfg.withDefaults(),
		clock:      clock,
		cb:         cb,
		pendingAnn: make(map[netaddr.Prefix]bgp.Attrs),
		pendingWd:  make(map[netaddr.Prefix]struct{}),
		advertised: make(map[netaddr.Prefix]bgp.Attrs),
		tab:        intern.New(),
	}
	return p
}

// State returns the current FSM state.
func (p *Peer) State() State { return p.state }

// Stats returns a copy of the session counters.
func (p *Peer) Stats() Stats { return p.stats }

// PeerAS returns the neighbor's AS number as learned from its OPEN (zero
// before the OPEN exchange).
func (p *Peer) PeerAS() bgp.ASN { return p.peerAS }

// PeerID returns the neighbor's BGP identifier from its OPEN.
func (p *Peer) PeerID() netaddr.Addr { return p.peerID }

// Start moves the session out of Idle and, for active sessions, initiates
// the transport.
func (p *Peer) Start() {
	if p.state != Idle {
		return
	}
	if p.cfg.Passive {
		p.state = Active
		return
	}
	p.state = Connect
	p.tryConnect()
}

// tryConnect asks the environment for a transport and keeps retrying on the
// ConnectRetry interval while the session sits in Connect.
func (p *Peer) tryConnect() {
	if p.cb.Connect != nil {
		p.cb.Connect()
	}
	gen := p.generation
	p.stopTimer(&p.connectTimer)
	p.connectTimer = p.clock.After(p.cfg.ConnectRetry, func() {
		if p.generation == gen && p.state == Connect {
			p.tryConnect()
		}
	})
}

// TransportUp signals that the underlying transport is connected; the FSM
// sends OPEN and waits for the peer's.
func (p *Peer) TransportUp() {
	if p.state != Connect && p.state != Active && p.state != Idle {
		return
	}
	p.stopTimer(&p.connectTimer)
	p.state = OpenSent
	p.send(bgp.Open{
		Version:  bgp.Version,
		AS:       uint16(p.cfg.LocalAS),
		HoldTime: uint16(p.cfg.HoldTime / time.Second),
		BGPID:    p.cfg.LocalID,
	})
	p.resetHoldTimer(openHoldTime)
}

// TransportDown signals transport loss. The session drops to Idle and
// schedules a reconnect.
func (p *Peer) TransportDown(err error) {
	if p.state == Idle {
		return
	}
	p.drop(err)
}

// ErrHoldTimerExpired is reported through Callbacks.Down when the peer went
// silent past the negotiated hold time.
var ErrHoldTimerExpired = errors.New("session: hold timer expired")

// Deliver injects a received message into the FSM.
func (p *Peer) Deliver(msg bgp.Message) {
	p.stats.MsgsReceived++
	switch m := msg.(type) {
	case bgp.Open:
		p.handleOpen(m)
	case bgp.Keepalive:
		p.handleKeepalive()
	case bgp.Update:
		p.handleUpdate(m)
	case bgp.Notification:
		p.drop(m)
	default:
		p.notifyAndDrop(bgp.Notification{Code: bgp.NotifMessageHeaderError})
	}
}

func (p *Peer) handleOpen(m bgp.Open) {
	if p.state != OpenSent && p.state != Active {
		p.notifyAndDrop(bgp.Notification{Code: bgp.NotifFSMError})
		return
	}
	if p.state == Active {
		// Passive side: the remote connected and opened first; respond.
		p.state = OpenSent
		p.send(bgp.Open{
			Version:  bgp.Version,
			AS:       uint16(p.cfg.LocalAS),
			HoldTime: uint16(p.cfg.HoldTime / time.Second),
			BGPID:    p.cfg.LocalID,
		})
	}
	if m.Version != bgp.Version {
		p.notifyAndDrop(bgp.Notification{Code: bgp.NotifOpenMessageError, Subcode: 1})
		return
	}
	if m.AS == 0 {
		p.notifyAndDrop(bgp.Notification{Code: bgp.NotifOpenMessageError, Subcode: 2})
		return
	}
	p.peerAS = bgp.ASN(m.AS)
	p.peerID = m.BGPID
	p.holdTime = p.cfg.HoldTime
	if peerHold := time.Duration(m.HoldTime) * time.Second; peerHold < p.holdTime {
		p.holdTime = peerHold
	}
	p.send(bgp.Keepalive{})
	p.state = OpenConfirm
	if p.holdTime > 0 {
		p.resetHoldTimer(p.holdTime)
	}
}

func (p *Peer) handleKeepalive() {
	switch p.state {
	case OpenConfirm:
		p.state = Established
		p.stats.EstablishedCount++
		if p.holdTime > 0 {
			p.resetHoldTimer(p.holdTime)
			p.scheduleKeepalive()
		}
		p.scheduleMRAI()
		if p.cb.Established != nil {
			p.cb.Established()
		}
	case Established:
		if p.holdTime > 0 {
			p.resetHoldTimer(p.holdTime)
		}
	default:
		p.notifyAndDrop(bgp.Notification{Code: bgp.NotifFSMError})
	}
}

func (p *Peer) handleUpdate(m bgp.Update) {
	if p.state != Established {
		p.notifyAndDrop(bgp.Notification{Code: bgp.NotifFSMError})
		return
	}
	p.stats.UpdatesReceived++
	p.stats.AnnReceived += len(m.Announced)
	p.stats.WdReceived += len(m.Withdrawn)
	if p.holdTime > 0 {
		p.resetHoldTimer(p.holdTime)
	}
	if p.cb.Update != nil {
		p.cb.Update(m)
	}
}

func (p *Peer) send(msg bgp.Message) {
	p.stats.MsgsSent++
	if u, ok := msg.(bgp.Update); ok {
		p.stats.UpdatesSent++
		p.stats.AnnSent += len(u.Announced)
		p.stats.WdSent += len(u.Withdrawn)
	}
	p.cb.Send(msg)
}

func (p *Peer) notifyAndDrop(n bgp.Notification) {
	p.send(n)
	p.drop(n)
}

// drop tears the session down to Idle and schedules a reconnect.
func (p *Peer) drop(err error) {
	wasUp := p.state == Established
	p.state = Idle
	p.generation++
	p.stopTimer(&p.holdTimer)
	p.stopTimer(&p.keepTimer)
	p.stopTimer(&p.mraiTimer)
	p.stopTimer(&p.connectTimer)
	// A restarted session re-sends its entire table ("large state dump"), so
	// both pending and advertised state are discarded here; the routing
	// layer repopulates on the next Established.
	p.pendingAnn = make(map[netaddr.Prefix]bgp.Attrs)
	p.pendingWd = make(map[netaddr.Prefix]struct{})
	p.advertised = make(map[netaddr.Prefix]bgp.Attrs)
	if p.cb.CloseTransport != nil {
		p.cb.CloseTransport()
	}
	if wasUp {
		p.stats.DropCount++
	}
	if p.cb.Down != nil {
		p.cb.Down(err)
	}
	// Automatic restart.
	gen := p.generation
	p.connectTimer = p.clock.After(p.cfg.ConnectRetry, func() {
		if p.generation == gen && p.state == Idle {
			p.Start()
		}
	})
}

func (p *Peer) stopTimer(t *Canceler) {
	if *t != nil {
		(*t).Stop()
		*t = nil
	}
}

func (p *Peer) resetHoldTimer(d time.Duration) {
	p.stopTimer(&p.holdTimer)
	gen := p.generation
	p.holdTimer = p.clock.After(d, func() {
		if p.generation != gen {
			return
		}
		p.send(bgp.Notification{Code: bgp.NotifHoldTimerExpired})
		p.drop(ErrHoldTimerExpired)
	})
}

func (p *Peer) scheduleKeepalive() {
	interval := p.holdTime / 3
	if interval <= 0 {
		return
	}
	gen := p.generation
	var tick func()
	tick = func() {
		if p.generation != gen || p.state != Established {
			return
		}
		delay := time.Duration(0)
		if p.cb.KeepaliveDelay != nil {
			delay = p.cb.KeepaliveDelay()
		}
		if delay > 0 {
			// CPU-starved router: the keepalive goes out late. If the delay
			// pushes past the peer's hold time the session will die — the
			// flap-storm ignition the paper describes.
			p.keepTimer = p.clock.After(delay, func() {
				if p.generation != gen || p.state != Established {
					return
				}
				p.send(bgp.Keepalive{})
				p.keepTimer = p.clock.After(interval, tick)
			})
			return
		}
		p.send(bgp.Keepalive{})
		p.keepTimer = p.clock.After(interval, tick)
	}
	p.keepTimer = p.clock.After(interval, tick)
}
