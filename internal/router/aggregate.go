package router

import (
	"instability/internal/bgp"
	"instability/internal/netaddr"
	"instability/internal/rib"
)

// AggregateConfig makes the router announce a CIDR supernet on behalf of its
// component routes, the way a well-run 1996 provider announced one block for
// all its customers. Per the paper's §4.1: "an autonomous system will
// maintain a path to an aggregate supernet prefix as long as a path to one
// or more of the component prefixes is available. This effectively limits
// the visibility of instability stemming from unstable customer circuits or
// routers to the scope of a single autonomous system."
type AggregateConfig struct {
	// Supernet is the announced aggregate.
	Supernet netaddr.Prefix
	// SuppressComponents stops the more-specific component routes from
	// being exported (proper aggregation); false announces both (the sloppy
	// kind that fills the default-free table anyway).
	SuppressComponents bool
}

type aggregateState struct {
	cfg AggregateConfig
	// components currently alive under the supernet.
	components map[netaddr.Prefix]bool
	active     bool
}

// ConfigureAggregate enables aggregation for the given supernet. Call before
// routes are learned.
func (r *Router) ConfigureAggregate(cfg AggregateConfig) {
	if r.aggregates == nil {
		r.aggregates = make(map[netaddr.Prefix]*aggregateState)
	}
	r.aggregates[cfg.Supernet] = &aggregateState{
		cfg:        cfg,
		components: make(map[netaddr.Prefix]bool),
	}
}

// aggregateFor finds the aggregate covering p, if any (excluding the
// supernet itself, which is not its own component).
func (r *Router) aggregateFor(p netaddr.Prefix) *aggregateState {
	for super, st := range r.aggregates {
		if super != p && super.ContainsPrefix(p) {
			return st
		}
	}
	return nil
}

// noteComponent updates aggregate state after a component decision and
// originates or withdraws the supernet at the edge transitions. It reports
// whether the component's own propagation should be suppressed.
func (r *Router) noteComponent(d rib.Decision) (suppress bool) {
	st := r.aggregateFor(d.Prefix)
	if st == nil {
		return false
	}
	if d.HasBest {
		st.components[d.Prefix] = true
	} else {
		delete(st.components, d.Prefix)
	}
	switch {
	case !st.active && len(st.components) > 0:
		st.active = true
		attrs := bgp.Attrs{
			Origin:          bgp.OriginIGP,
			Path:            bgp.ASPath{},
			NextHop:         r.cfg.NextHopSelf,
			AtomicAggregate: true,
			HasAggregator:   true,
			AggregatorAS:    r.cfg.AS,
			AggregatorAddr:  r.cfg.ID,
		}
		r.originated[st.cfg.Supernet] = attrs
		self := rib.PeerID{AS: r.cfg.AS, ID: r.cfg.ID}
		ad := r.rib.Update(self, st.cfg.Supernet, attrs)
		r.propagate(ad, nil)
	case st.active && len(st.components) == 0:
		st.active = false
		delete(r.originated, st.cfg.Supernet)
		self := rib.PeerID{AS: r.cfg.AS, ID: r.cfg.ID}
		ad := r.rib.Withdraw(self, st.cfg.Supernet)
		r.propagate(ad, nil)
	}
	return st.cfg.SuppressComponents
}
