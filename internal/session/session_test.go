package session

import (
	"net"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/events"
	"instability/internal/netaddr"
)

func pfx(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

func attrs(nh uint32, path ...bgp.ASN) bgp.Attrs {
	return bgp.Attrs{Origin: bgp.OriginIGP, Path: bgp.PathFromASNs(path...), NextHop: netaddr.Addr(nh)}
}

// pair builds two peers over a verified pipe and establishes the session.
type pair struct {
	sim  *events.Sim
	pipe *Pipe
	a, b *Peer
	// received updates per side
	gotA, gotB []bgp.Update
	downA      []error
}

func newPair(t *testing.T, cfgA, cfgB Config) *pair {
	t.Helper()
	sim := events.New(1)
	p := &pair{sim: sim, pipe: NewPipe(sim, 5*time.Millisecond)}
	p.pipe.Verify = true
	p.a = New(cfgA, SimClock(sim, "a"), Callbacks{
		Send:   p.pipe.SendA,
		Update: func(u bgp.Update) { p.gotA = append(p.gotA, u) },
		Down:   func(err error) { p.downA = append(p.downA, err) },
	})
	p.b = New(cfgB, SimClock(sim, "b"), Callbacks{
		Send:   p.pipe.SendB,
		Update: func(u bgp.Update) { p.gotB = append(p.gotB, u) },
	})
	p.pipe.Bind(p.a, p.b)
	if !Establish(sim, p.pipe, p.a, p.b, time.Minute) {
		t.Fatalf("session did not establish: a=%v b=%v", p.a.State(), p.b.State())
	}
	return p
}

func cfg(as bgp.ASN, id uint32) Config {
	return Config{LocalAS: as, LocalID: netaddr.Addr(id), MRAI: 30 * time.Second}
}

func TestEstablishment(t *testing.T) {
	p := newPair(t, cfg(690, 1), cfg(701, 2))
	if p.a.State() != Established || p.b.State() != Established {
		t.Fatal("not established")
	}
	if p.a.Stats().EstablishedCount != 1 {
		t.Fatalf("established count %d", p.a.Stats().EstablishedCount)
	}
	if p.a.HoldTimeNegotiated() != DefaultHoldTime {
		t.Fatalf("hold time %v", p.a.HoldTimeNegotiated())
	}
}

func TestHoldTimeNegotiatesToMinimum(t *testing.T) {
	ca := cfg(690, 1)
	ca.HoldTime = 90 * time.Second
	cb := cfg(701, 2)
	cb.HoldTime = 180 * time.Second
	p := newPair(t, ca, cb)
	if p.a.HoldTimeNegotiated() != 90*time.Second || p.b.HoldTimeNegotiated() != 90*time.Second {
		t.Fatalf("hold %v / %v", p.a.HoldTimeNegotiated(), p.b.HoldTimeNegotiated())
	}
}

func TestKeepalivesSustainSession(t *testing.T) {
	p := newPair(t, cfg(690, 1), cfg(701, 2))
	p.sim.RunFor(time.Hour)
	if p.a.State() != Established || p.b.State() != Established {
		t.Fatal("session dropped despite keepalives")
	}
	if len(p.downA) != 0 {
		t.Fatalf("unexpected downs: %v", p.downA)
	}
}

func TestKeepaliveStarvationDropsSession(t *testing.T) {
	sim := events.New(2)
	pipe := NewPipe(sim, 5*time.Millisecond)
	// Peer A delays every keepalive beyond the hold time — the CPU-starved
	// router of the paper's flap-storm narrative.
	var downB error
	a := New(cfg(690, 1), SimClock(sim, "a"), Callbacks{
		Send:           pipe.SendA,
		KeepaliveDelay: func() time.Duration { return 5 * time.Minute },
	})
	b := New(cfg(701, 2), SimClock(sim, "b"), Callbacks{
		Send: pipe.SendB,
		Down: func(err error) { downB = err },
	})
	pipe.Bind(a, b)
	if !Establish(sim, pipe, a, b, time.Minute) {
		t.Fatal("no establishment")
	}
	sim.RunFor(10 * time.Minute)
	if downB == nil {
		t.Fatal("B should have dropped the session on hold timer expiry")
	}
	if b.Stats().DropCount == 0 {
		t.Fatal("drop not counted")
	}
}

func TestAnnounceFlushesOnMRAI(t *testing.T) {
	p := newPair(t, cfg(690, 1), cfg(701, 2))
	p.a.Announce(pfx("35.0.0.0/8"), attrs(1, 690, 237))
	p.a.Announce(pfx("141.213.0.0/16"), attrs(1, 690, 237))
	p.a.Announce(pfx("198.108.0.0/16"), attrs(2, 690, 177))
	if len(p.gotB) != 0 {
		t.Fatal("nothing should arrive before the MRAI fires")
	}
	p.sim.RunFor(31 * time.Second)
	// Two attribute groups → two UPDATE messages, first carrying two NLRI.
	if len(p.gotB) != 2 {
		t.Fatalf("got %d updates", len(p.gotB))
	}
	total := 0
	for _, u := range p.gotB {
		total += len(u.Announced)
	}
	if total != 3 {
		t.Fatalf("total NLRI %d", total)
	}
	if !p.a.Advertised(pfx("35.0.0.0/8")) {
		t.Fatal("adj-rib-out not recorded")
	}
}

func TestImmediateFlushWithZeroMRAI(t *testing.T) {
	ca := cfg(690, 1)
	ca.MRAI = 0
	p := newPair(t, ca, cfg(701, 2))
	p.a.Announce(pfx("35.0.0.0/8"), attrs(1, 690, 237))
	p.sim.RunFor(time.Second)
	if len(p.gotB) != 1 {
		t.Fatalf("got %d updates", len(p.gotB))
	}
}

func TestWithdrawSupersedesPendingAnnounce(t *testing.T) {
	p := newPair(t, cfg(690, 1), cfg(701, 2))
	// Announce then withdraw within one interval, starting from nothing
	// advertised: stateful peers send nothing at all.
	p.a.Announce(pfx("35.0.0.0/8"), attrs(1, 690, 237))
	p.a.Withdraw(pfx("35.0.0.0/8"))
	p.sim.RunFor(31 * time.Second)
	if got := p.a.Stats().WdSent; got != 0 {
		t.Fatalf("stateful peer sent %d withdrawals for a never-advertised route", got)
	}
	if len(p.gotB) != 0 {
		t.Fatalf("peer received %d updates", len(p.gotB))
	}
}

func TestStatelessSendsSpuriousWithdrawals(t *testing.T) {
	ca := StatelessVendorConfig(690, 1)
	p := newPair(t, ca, cfg(701, 2))
	// The route was never announced on this session, yet a stateless router
	// withdraws it to every peer — the WWDup generator.
	p.a.Withdraw(pfx("192.42.113.0/24"))
	p.sim.RunFor(31 * time.Second)
	if p.a.Stats().WdSent != 1 {
		t.Fatalf("wd sent %d", p.a.Stats().WdSent)
	}
	if len(p.gotB) != 1 || len(p.gotB[0].Withdrawn) != 1 {
		t.Fatalf("peer got %v", p.gotB)
	}
	// Repeating it keeps producing duplicates.
	p.a.Withdraw(pfx("192.42.113.0/24"))
	p.sim.RunFor(31 * time.Second)
	if p.a.Stats().WdSent != 2 {
		t.Fatalf("wd sent %d", p.a.Stats().WdSent)
	}
}

func TestStatefulSuppressesSpuriousWithdrawals(t *testing.T) {
	ca := StatefulVendorConfig(690, 1)
	p := newPair(t, ca, cfg(701, 2))
	p.a.Withdraw(pfx("192.42.113.0/24"))
	p.sim.RunFor(31 * time.Second)
	if p.a.Stats().WdSent != 0 {
		t.Fatalf("stateful peer sent %d spurious withdrawals", p.a.Stats().WdSent)
	}
}

func TestOscillationProducesDuplicateAnnouncement(t *testing.T) {
	// A1, A2, A1 within one interval: a naive (non-comparing) sender flushes
	// a duplicate of the pre-interval state — the AADup generator.
	p := newPair(t, cfg(690, 1), cfg(701, 2))
	a1 := attrs(1, 690, 237)
	a2 := attrs(1, 690, 1239, 237)
	p.a.Announce(pfx("35.0.0.0/8"), a1)
	p.sim.RunFor(31 * time.Second)
	if len(p.gotB) != 1 {
		t.Fatalf("setup: %d updates", len(p.gotB))
	}
	p.a.Announce(pfx("35.0.0.0/8"), a2)
	p.a.Announce(pfx("35.0.0.0/8"), a1)
	p.sim.RunFor(31 * time.Second)
	if len(p.gotB) != 2 {
		t.Fatalf("naive sender should emit the duplicate, got %d updates", len(p.gotB))
	}
	if !p.gotB[1].Attrs.PolicyEqual(&p.gotB[0].Attrs) {
		t.Fatal("flushed update should duplicate the original")
	}
}

func TestCompareLastSentSuppressesDuplicate(t *testing.T) {
	ca := cfg(690, 1)
	ca.CompareLastSent = true
	p := newPair(t, ca, cfg(701, 2))
	a1 := attrs(1, 690, 237)
	a2 := attrs(1, 690, 1239, 237)
	p.a.Announce(pfx("35.0.0.0/8"), a1)
	p.sim.RunFor(31 * time.Second)
	p.a.Announce(pfx("35.0.0.0/8"), a2)
	p.a.Announce(pfx("35.0.0.0/8"), a1)
	p.sim.RunFor(31 * time.Second)
	if len(p.gotB) != 1 {
		t.Fatalf("comparing sender should suppress the duplicate, got %d", len(p.gotB))
	}
}

func TestUnjitteredFlushPeriodIsExact(t *testing.T) {
	p := newPair(t, cfg(690, 1), cfg(701, 2))
	established := p.sim.Now()
	var arrivals []time.Time
	feed := p.sim.Every(7*time.Second, func() {
		p.a.Announce(pfx("35.0.0.0/8"), attrs(uint32(len(arrivals)+2), 690, 237))
	})
	defer feed.Stop()
	prev := len(p.gotB)
	for p.sim.Now().Before(established.Add(10 * time.Minute)) {
		p.sim.RunFor(time.Second)
		if len(p.gotB) > prev {
			arrivals = append(arrivals, p.sim.Now())
			prev = len(p.gotB)
		}
	}
	if len(arrivals) < 5 {
		t.Fatalf("only %d flushes", len(arrivals))
	}
	for i := 1; i < len(arrivals); i++ {
		gap := arrivals[i].Sub(arrivals[i-1])
		if gap%(30*time.Second) != 0 {
			t.Fatalf("inter-flush gap %v not a multiple of 30s", gap)
		}
	}
}

func TestLinkDownDropsAndReconnects(t *testing.T) {
	sim := events.New(3)
	pipe := NewPipe(sim, 5*time.Millisecond)
	pipe.Verify = true
	reconnects := 0
	var a, b *Peer
	a = New(cfg(690, 1), SimClock(sim, "a"), Callbacks{
		Send: pipe.SendA,
		Connect: func() {
			reconnects++
			if reconnects > 1 {
				// Environment restores the link on reconnect attempt.
				sim.Schedule(time.Second, pipe.Up)
			}
		},
	})
	b = New(cfg(701, 2), SimClock(sim, "b"), Callbacks{Send: pipe.SendB})
	pipe.Bind(a, b)
	if !Establish(sim, pipe, a, b, time.Minute) {
		t.Fatal("no establishment")
	}
	pipe.Down()
	if a.State() != Idle || b.State() != Idle {
		t.Fatalf("states after down: %v %v", a.State(), b.State())
	}
	// ConnectRetry (120 s) later both sides retry and re-establish.
	sim.RunFor(5 * time.Minute)
	if a.State() != Established || b.State() != Established {
		t.Fatalf("states after retry: %v %v", a.State(), b.State())
	}
	if reconnects < 2 {
		t.Fatalf("reconnects %d", reconnects)
	}
}

func TestAdjRIBOutClearedOnDrop(t *testing.T) {
	p := newPair(t, cfg(690, 1), cfg(701, 2))
	p.a.Announce(pfx("35.0.0.0/8"), attrs(1, 690, 237))
	p.sim.RunFor(31 * time.Second)
	if !p.a.Advertised(pfx("35.0.0.0/8")) {
		t.Fatal("not advertised")
	}
	p.pipe.Down()
	if p.a.Advertised(pfx("35.0.0.0/8")) {
		t.Fatal("adj-rib-out should be cleared on session loss")
	}
	if p.a.PendingChanges() != 0 {
		t.Fatal("pending changes should be cleared on session loss")
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	sim := events.New(4)
	pipe := NewPipe(sim, time.Millisecond)
	var downA error
	a := New(cfg(690, 1), SimClock(sim, "a"), Callbacks{
		Send: pipe.SendA,
		Down: func(err error) { downA = err },
	})
	b := New(cfg(701, 2), SimClock(sim, "b"), Callbacks{Send: pipe.SendB})
	pipe.Bind(a, b)
	a.Start()
	pipe.up = true
	a.TransportUp()
	// Inject a bad OPEN directly, without running the simulator, so peer B's
	// own FSM cannot interfere.
	a.Deliver(bgp.Open{Version: 3, AS: 701, HoldTime: 180, BGPID: 2})
	if a.State() != Idle {
		t.Fatalf("state %v after bad version", a.State())
	}
	if downA == nil {
		t.Fatal("down callback not fired")
	}
	n, ok := downA.(bgp.Notification)
	if !ok || n.Code != bgp.NotifOpenMessageError {
		t.Fatalf("down error %v", downA)
	}
}

func TestUpdateInWrongStateDropsSession(t *testing.T) {
	sim := events.New(5)
	pipe := NewPipe(sim, time.Millisecond)
	a := New(cfg(690, 1), SimClock(sim, "a"), Callbacks{Send: pipe.SendA})
	b := New(cfg(701, 2), SimClock(sim, "b"), Callbacks{Send: pipe.SendB})
	pipe.Bind(a, b)
	a.Start()
	pipe.up = true
	a.TransportUp()
	a.Deliver(bgp.Update{})
	if a.State() != Idle {
		t.Fatalf("state %v", a.State())
	}
}

func TestLargeFlushChunksMessages(t *testing.T) {
	p := newPair(t, cfg(690, 1), cfg(701, 2))
	shared := attrs(1, 690, 237)
	for i := 0; i < 2000; i++ {
		p.a.Announce(netaddr.MustPrefix(netaddr.Addr(uint32(0x0a000000+i*256)), 24), shared)
	}
	p.sim.RunFor(31 * time.Second)
	if len(p.gotB) < 3 {
		t.Fatalf("expected chunked updates, got %d", len(p.gotB))
	}
	total := 0
	for _, u := range p.gotB {
		total += len(u.Announced)
	}
	if total != 2000 {
		t.Fatalf("delivered %d NLRI", total)
	}
}

func TestRunnerOverNetPipe(t *testing.T) {
	c1, c2 := net.Pipe()
	var gotUpdates []bgp.Update
	estA := make(chan struct{}, 1)
	estB := make(chan struct{}, 1)

	ra := NewRunner(Config{LocalAS: 690, LocalID: 1, MRAI: 0}, c1, Callbacks{
		Established: func() { estA <- struct{}{} },
	})
	rb := NewRunner(Config{LocalAS: 701, LocalID: 2, MRAI: 0}, c2, Callbacks{
		Established: func() { estB <- struct{}{} },
		Update:      func(u bgp.Update) { gotUpdates = append(gotUpdates, u) },
	})

	doneA := make(chan error, 1)
	doneB := make(chan error, 1)
	go func() { doneA <- ra.Run() }()
	go func() { doneB <- rb.Run() }()

	waitOrFail := func(ch chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout waiting for %s", what)
		}
	}
	waitOrFail(estA, "A established")
	waitOrFail(estB, "B established")

	ra.Do(func(p *Peer) {
		p.Announce(pfx("35.0.0.0/8"), attrs(1, 690, 237))
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		var n int
		rb.Do(func(p *Peer) { n = p.Stats().UpdatesReceived })
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("update never arrived over net.Pipe")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ra.Close()
	<-doneA
	select {
	case <-doneB:
	case <-time.After(5 * time.Second):
		t.Fatal("B runner did not exit after remote close")
	}
	rb.Do(func(p *Peer) {
		if len(gotUpdates) == 0 {
			t.Error("no updates recorded")
		}
	})
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		Idle: "Idle", Connect: "Connect", Active: "Active",
		OpenSent: "OpenSent", OpenConfirm: "OpenConfirm", Established: "Established",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d -> %q", int(s), s.String())
		}
	}
	if State(42).String() == "" {
		t.Error("unknown state should still print")
	}
}

func TestJitteredFlushPeriodVaries(t *testing.T) {
	ca := cfg(690, 1)
	ca.MRAIJitter = 0.25
	p := newPair(t, ca, cfg(701, 2))
	var arrivals []time.Time
	i := 0
	feed := p.sim.Every(7*time.Second, func() {
		i++
		p.a.Announce(pfx("35.0.0.0/8"), attrs(uint32(i+2), 690, 237))
	})
	defer feed.Stop()
	prev := len(p.gotB)
	start := p.sim.Now()
	for p.sim.Now().Before(start.Add(20 * time.Minute)) {
		p.sim.RunFor(time.Second)
		if len(p.gotB) > prev {
			arrivals = append(arrivals, p.sim.Now())
			prev = len(p.gotB)
		}
	}
	if len(arrivals) < 10 {
		t.Fatalf("only %d flushes", len(arrivals))
	}
	offGrid := 0
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i].Sub(arrivals[i-1])%(30*time.Second) != 0 {
			offGrid++
		}
	}
	if offGrid == 0 {
		t.Fatal("jittered timer produced perfectly gridded flushes")
	}
}

func TestPassiveSideEstablishes(t *testing.T) {
	sim := events.New(8)
	pipe := NewPipe(sim, 5*time.Millisecond)
	cb := cfg(701, 2)
	cb.Passive = true
	a := New(cfg(690, 1), SimClock(sim, "a"), Callbacks{Send: pipe.SendA})
	b := New(cb, SimClock(sim, "b"), Callbacks{Send: pipe.SendB})
	pipe.Bind(a, b)
	a.Start()
	b.Start()
	if b.State() != Active {
		t.Fatalf("passive side state %v, want Active", b.State())
	}
	pipe.Up()
	// Only the active side announces the transport; the passive side reacts
	// to the incoming OPEN.
	sim.RunFor(time.Second)
	if a.State() != Established || b.State() != Established {
		t.Fatalf("states %v / %v", a.State(), b.State())
	}
}

func TestPeerIdentityLearnedFromOpen(t *testing.T) {
	p := newPair(t, cfg(690, 1), cfg(701, 2))
	if p.a.PeerAS() != 701 || p.a.PeerID() != 2 {
		t.Fatalf("A learned peer %v/%v", p.a.PeerAS(), p.a.PeerID())
	}
	if p.b.PeerAS() != 690 || p.b.PeerID() != 1 {
		t.Fatalf("B learned peer %v/%v", p.b.PeerAS(), p.b.PeerID())
	}
}

func TestNotificationDropsSession(t *testing.T) {
	p := newPair(t, cfg(690, 1), cfg(701, 2))
	p.a.Deliver(bgp.Notification{Code: bgp.NotifCease})
	if p.a.State() != Idle {
		t.Fatalf("state %v after notification", p.a.State())
	}
	if len(p.downA) != 1 {
		t.Fatalf("downs %d", len(p.downA))
	}
}

// Establish runs the standard bring-up sequence for a freshly built pair:
// Start both peers, connect the transport, and advance the simulator until
// both report Established (or the deadline passes). It reports success.
func Establish(sim *events.Sim, l *Pipe, a, b *Peer, deadline time.Duration) bool {
	a.Start()
	b.Start()
	l.Up()
	horizon := sim.Now().Add(deadline)
	for sim.Now().Before(horizon) {
		if a.State() == Established && b.State() == Established {
			return true
		}
		if sim.RunFor(l.delay+time.Millisecond) == 0 && sim.Pending() == 0 {
			break
		}
	}
	return a.State() == Established && b.State() == Established
}

// StatelessVendorConfig returns the configuration matching the router
// implementation the paper blames for WWDup floods: no per-peer state and a
// fixed, unjittered 30-second interval timer.
func StatelessVendorConfig(as bgp.ASN, id netaddr.Addr) Config {
	return Config{LocalAS: as, LocalID: id, MRAI: 30 * time.Second, Stateless: true}
}

// StatefulVendorConfig returns the post-fix configuration: per-peer
// Adj-RIB-Out state, duplicate suppression, and a jittered timer.
func StatefulVendorConfig(as bgp.ASN, id netaddr.Addr) Config {
	return Config{LocalAS: as, LocalID: id, MRAI: 30 * time.Second, MRAIJitter: 0.25, CompareLastSent: true}
}

// Advertised reports whether the Adj-RIB-Out currently records prefix as
// announced to the peer. Stateless sessions keep no such record and always
// report false.
func (p *Peer) Advertised(prefix netaddr.Prefix) bool {
	if p.cfg.Stateless {
		return false
	}
	_, ok := p.advertised[prefix]
	return ok
}

// PendingChanges returns the number of queued, unflushed route changes.
func (p *Peer) PendingChanges() int { return len(p.pendingAnn) + len(p.pendingWd) }

// HoldTimeNegotiated returns the negotiated hold time (zero before OPEN
// exchange or when keepalives are disabled).
func (p *Peer) HoldTimeNegotiated() time.Duration { return p.holdTime }
