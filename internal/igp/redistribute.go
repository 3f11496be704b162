package igp

import (
	"time"

	"instability/internal/events"
	"instability/internal/netaddr"
)

// DomainRedistributor carries external routes one way between two IGP
// flooding domains through a router that participates in both (src and dst
// are that router's presences in each domain). Mutual redistribution at two
// such routers is the textbook two-point loop: without tag filtering, a
// route injected A→B at one router returns B→A at the other and keeps
// itself alive after the original vanishes — undetectable by any AS-path
// mechanism because no BGP is involved at all.
type DomainRedistributor struct {
	sim      *events.Sim
	src, dst *Node

	// ScanInterval is the redistribution timer (default 30 s, unjittered).
	ScanInterval time.Duration
	// Tag stamps externals this redistributor injects into dst.
	Tag uint32
	// Metric is the injected external metric.
	Metric uint32
	// FilterTags lists tags that must not be redistributed (the loop
	// breaker: both directions' stamps belong here).
	FilterTags map[uint32]bool

	injected map[netaddr.Prefix]bool
	// Scans counts scanner runs.
	Scans int
}

// NewDomainRedistributor starts a one-way src→dst redistribution scanner.
// The phase offset staggers this scanner's 30-second ticks relative to
// others'; independent routers are never synchronized, and it is exactly the
// staggered case in which the two-point loop closes — a withdrawn route's
// forward injection disappears at one router, the partner's back-injection
// is observed before the other forward scanner fires, and the ghost locks
// in.
func NewDomainRedistributor(sim *events.Sim, src, dst *Node, tag uint32, phase time.Duration) *DomainRedistributor {
	r := &DomainRedistributor{
		sim: sim, src: src, dst: dst,
		ScanInterval: 30 * time.Second,
		Tag:          tag,
		Metric:       20,
		FilterTags:   make(map[uint32]bool),
		injected:     make(map[netaddr.Prefix]bool),
	}
	sim.Schedule(phase, func() {
		r.scan()
		sim.Every(r.ScanInterval, r.scan)
	})
	return r
}

func (r *DomainRedistributor) scan() {
	r.Scans++
	want := make(map[netaddr.Prefix]bool)
	for p, rt := range r.src.Routes() {
		if rt.Origin == r.src.ID() {
			continue // own reverse-direction injections never bounce back
		}
		if r.FilterTags[rt.Tag] {
			continue
		}
		want[p] = true
	}
	for p := range want {
		if !r.injected[p] {
			r.injected[p] = true
			r.dst.AnnounceExternal(p, External{Metric: r.Metric, Tag: r.Tag})
		}
	}
	for p := range r.injected {
		if !want[p] {
			delete(r.injected, p)
			r.dst.WithdrawExternal(p)
		}
	}
}
