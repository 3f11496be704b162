package session

import (
	"errors"
	"time"

	"instability/internal/bgp"
	"instability/internal/events"
	"instability/internal/faults"
)

// Pipe couples two Peers through the discrete-event simulator with a fixed
// one-way propagation delay, standing in for the TCP connection between two
// border routers at an exchange point.
//
// Construct the Pipe first, build each Peer with the corresponding
// SendA/SendB function as its Callbacks.Send, then call Bind and Up.
type Pipe struct {
	sim   *events.Sim
	delay time.Duration
	a, b  *Peer
	up    bool
	// Verify marshals and re-parses every message in flight, so simulated
	// traffic exercises the full wire codec. Off by default for speed.
	Verify bool
	// Chaos, when non-nil, consults a seeded fault plan on every transmit:
	// messages may be dropped, duplicated, or delayed, and a reset tears the
	// whole link down (both FSMs see TransportDown). Nil means a faithful
	// link.
	Chaos *faults.Transport
	// Delivered counts messages that completed transit in each direction.
	DeliveredAB, DeliveredBA int
	epoch                    uint64 // invalidates in-flight messages on Down
}

// NewPipe returns a Pipe over sim with the given one-way delay.
func NewPipe(sim *events.Sim, delay time.Duration) *Pipe {
	return &Pipe{sim: sim, delay: delay}
}

// Bind attaches the two endpoints. It must be called before Up.
func (l *Pipe) Bind(a, b *Peer) {
	l.a, l.b = a, b
}

// Up marks the transport connected and informs both FSMs.
func (l *Pipe) Up() {
	if l.a == nil || l.b == nil {
		panic("session: Pipe.Up before Bind")
	}
	l.up = true
	l.a.TransportUp()
	l.b.TransportUp()
}

// IsUp reports whether the transport is currently connected.
func (l *Pipe) IsUp() bool { return l.up }

// ErrLinkDown is delivered to both FSMs when the pipe fails.
var ErrLinkDown = errors.New("session: transport link down")

// Down fails the transport: in-flight messages are lost and both FSMs see
// TransportDown. The peers' ConnectRetry machinery will later call Connect;
// the environment decides when to call Up again.
func (l *Pipe) Down() {
	if !l.up {
		return
	}
	l.up = false
	l.epoch++
	l.a.TransportDown(ErrLinkDown)
	l.b.TransportDown(ErrLinkDown)
}

// SendA is the Callbacks.Send for the A-side peer.
func (l *Pipe) SendA(msg bgp.Message) { l.transmit(msg, true) }

// SendB is the Callbacks.Send for the B-side peer.
func (l *Pipe) SendB(msg bgp.Message) { l.transmit(msg, false) }

func (l *Pipe) transmit(msg bgp.Message, fromA bool) {
	if !l.up {
		return
	}
	if l.Verify {
		wire, err := bgp.Marshal(msg)
		if err != nil {
			panic("session: unmarshalable message offered to pipe: " + err.Error())
		}
		decoded, err := bgp.Unmarshal(wire)
		if err != nil {
			panic("session: wire round-trip failed: " + err.Error())
		}
		msg = decoded
	}
	delay, copies := l.delay, 1
	if l.Chaos != nil {
		d := l.Chaos.Decide()
		switch {
		case d.Reset:
			// Fail the link from a fresh event, not from inside the FSM
			// action that is sending this message: Down re-enters both FSMs.
			l.sim.Schedule(0, l.Down)
			return
		case d.Drop:
			return
		case d.Dup:
			copies = 2
		}
		delay += d.Extra
	}
	epoch := l.epoch
	for c := 0; c < copies; c++ {
		l.sim.Schedule(delay, func() {
			if !l.up || l.epoch != epoch {
				return // lost in transit
			}
			if fromA {
				l.DeliveredAB++
				l.b.Deliver(msg)
			} else {
				l.DeliveredBA++
				l.a.Deliver(msg)
			}
		})
	}
}
