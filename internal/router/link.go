package router

import (
	"time"

	"instability/internal/events"
	"instability/internal/session"
)

// Link is a point-to-point adjacency between two routers: the simulated
// transport plus the reconnection logic that brings the transport back up
// when both sides' FSMs retry (and neither router is crashed).
type Link struct {
	sim          *events.Sim
	pipe         *session.Pipe
	a, b         *Router
	sa, sb       *session.Peer
	wantA, wantB bool
	// admin marks the link administratively disabled (fault injection);
	// reconnection attempts are refused until re-enabled.
	admin bool
}

// Connect wires routers a and b with a simulated transport of the given
// one-way delay and starts both session endpoints. The returned Link owns
// reconnection; call Fail/Restore for fault injection.
func Connect(sim *events.Sim, a, b *Router, delay time.Duration) *Link {
	l := &Link{sim: sim, a: a, b: b, pipe: session.NewPipe(sim, delay)}
	// Either side dropping the session closes the shared transport, so the
	// reconnection logic starts from a clean pipe.
	l.sa = a.AddPeer(b.AS(), b.ID(), l.pipe.SendA, func() { l.want(true) }, l.pipe.Down)
	l.sb = b.AddPeer(a.AS(), a.ID(), l.pipe.SendB, func() { l.want(false) }, l.pipe.Down)
	l.pipe.Bind(l.sa, l.sb)
	a.OnCrash(l.pipe.Down)
	b.OnCrash(l.pipe.Down)
	l.sa.Start()
	l.sb.Start()
	l.tryUp()
	return l
}

func (l *Link) want(aSide bool) {
	if aSide {
		l.wantA = true
	} else {
		l.wantB = true
	}
	l.tryUp()
}

func (l *Link) tryUp() {
	if l.pipe.IsUp() || l.admin || l.a.Crashed() || l.b.Crashed() {
		return
	}
	l.wantA, l.wantB = false, false
	// Small connection setup delay keeps bring-up off the current instant.
	l.sim.Schedule(10*time.Millisecond, func() {
		if !l.pipe.IsUp() && !l.admin && !l.a.Crashed() && !l.b.Crashed() {
			l.pipe.Up()
		}
	})
}

// Fail takes the link down (a leased-line cut, CSU loss of carrier). The
// sessions drop; reconnection is blocked until Restore.
func (l *Link) Fail() {
	l.admin = true
	l.pipe.Down()
}

// Restore re-enables the link; the next retry (or an immediate attempt)
// brings it back up.
func (l *Link) Restore() {
	l.admin = false
	l.tryUp()
}

// Flap fails the link and restores it after the outage duration.
func (l *Link) Flap(outage time.Duration) {
	l.Fail()
	l.sim.Schedule(outage, l.Restore)
}

// Established reports whether both endpoints are in the Established state.
func (l *Link) Established() bool {
	return l.sa.State() == session.Established && l.sb.State() == session.Established
}
