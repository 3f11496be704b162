package session

import (
	"instability/internal/bgp"
	"instability/internal/intern"
	"instability/internal/netaddr"
)

// Announce queues an announcement of prefix with the given attributes toward
// the peer. Successive calls for the same prefix within one MRAI interval
// supersede each other; only the latest state is flushed.
func (p *Peer) Announce(prefix netaddr.Prefix, attrs bgp.Attrs) {
	delete(p.pendingWd, prefix)
	p.pendingAnn[prefix] = attrs
	p.kickFlush()
}

// Withdraw queues a withdrawal of prefix toward the peer.
//
// A stateless implementation queues the withdrawal unconditionally — even if
// the prefix was never advertised to this peer — reproducing the paper's
// WWDup-generating vendor behavior. A stateful implementation consults its
// Adj-RIB-Out and drops withdrawals for prefixes the peer was never told
// about.
func (p *Peer) Withdraw(prefix netaddr.Prefix) {
	_, wasPending := p.pendingAnn[prefix]
	delete(p.pendingAnn, prefix)
	if !p.cfg.Stateless {
		_, wasAdvertised := p.advertised[prefix]
		if !wasAdvertised && !wasPending {
			return
		}
	}
	p.pendingWd[prefix] = struct{}{}
	p.kickFlush()
}

// kickFlush arranges for pending changes to be transmitted: immediately when
// MRAI is zero, otherwise on the free-running interval timer started at
// session establishment.
func (p *Peer) kickFlush() {
	if p.state != Established {
		return
	}
	if p.cfg.MRAI == 0 && p.mraiTimer == nil {
		gen := p.generation
		p.mraiTimer = p.clock.After(0, func() {
			if p.generation != gen {
				return
			}
			p.mraiTimer = nil
			p.Flush()
		})
	}
}

// scheduleMRAI starts the free-running interval timer. A fixed (unjittered)
// period is exactly the vendor timer the paper identifies; per-tick jitter is
// the remedy.
func (p *Peer) scheduleMRAI() {
	if p.cfg.MRAI == 0 {
		return
	}
	gen := p.generation
	var tick func()
	tick = func() {
		if p.generation != gen || p.state != Established {
			return
		}
		p.Flush()
		p.mraiTimer = p.clock.After(p.clock.Jitter(p.cfg.MRAI, p.cfg.MRAIJitter), tick)
	}
	p.mraiTimer = p.clock.After(p.clock.Jitter(p.cfg.MRAI, p.cfg.MRAIJitter), tick)
}

// Flush transmits all pending changes now, packing them into as few UPDATE
// messages as fit. It is normally driven by the MRAI timer but may be called
// directly (e.g. for the initial table dump right after establishment).
func (p *Peer) Flush() {
	if p.state != Established || (len(p.pendingAnn) == 0 && len(p.pendingWd) == 0) {
		return
	}
	p.stats.FlushCount++

	withdrawals := make([]netaddr.Prefix, 0, len(p.pendingWd))
	for pre := range p.pendingWd {
		if !p.cfg.Stateless {
			if _, ok := p.advertised[pre]; !ok {
				continue // peer never heard of it; suppress the duplicate
			}
		}
		withdrawals = append(withdrawals, pre)
	}
	bgp.SortPrefixes(withdrawals)

	// Group announcements by identical attribute sets so they share one
	// UPDATE, as real speakers pack them. Interned handle identity is the
	// grouping key — one table probe per prefix, no key-string construction.
	// Groups keep the order their first prefix appears in the sorted prefix
	// list, so emission is deterministic.
	type annGroup struct {
		attrs bgp.Attrs
		pres  []netaddr.Prefix
	}
	groupOf := make(map[*intern.Handle]int)
	var groups []annGroup
	annPrefixes := make([]netaddr.Prefix, 0, len(p.pendingAnn))
	for pre := range p.pendingAnn {
		annPrefixes = append(annPrefixes, pre)
	}
	bgp.SortPrefixes(annPrefixes)
	for _, pre := range annPrefixes {
		attrs := p.pendingAnn[pre]
		if p.cfg.CompareLastSent && !p.cfg.Stateless {
			if prev, ok := p.advertised[pre]; ok && prev.PolicyEqual(&attrs) {
				continue // identical to what the peer holds; suppress
			}
		}
		h := p.tab.AttrsAfter(nil, &attrs) // never fails: a tuple with no wire form fails at send
		gi, ok := groupOf[h]
		if !ok {
			gi = len(groups)
			groups = append(groups, annGroup{attrs: *h.Attrs()})
			groupOf[h] = gi
		}
		groups[gi].pres = append(groups[gi].pres, pre)
	}

	// Record Adj-RIB-Out effects (stateful only).
	if !p.cfg.Stateless {
		for _, pre := range withdrawals {
			delete(p.advertised, pre)
		}
		for _, g := range groups {
			for _, pre := range g.pres {
				p.advertised[pre] = p.pendingAnn[pre]
			}
		}
	}
	p.pendingAnn = make(map[netaddr.Prefix]bgp.Attrs)
	p.pendingWd = make(map[netaddr.Prefix]struct{})

	// Emit withdrawals, chunked to honor the 4096-octet message limit.
	const maxPerMsg = 800 // conservative: 5 octets per /32 NLRI
	for len(withdrawals) > 0 {
		n := len(withdrawals)
		if n > maxPerMsg {
			n = maxPerMsg
		}
		p.send(bgp.Update{Withdrawn: withdrawals[:n]})
		withdrawals = withdrawals[n:]
	}

	// Emit announcement groups in deterministic first-seen order (the
	// prefixes were sorted before grouping).
	for _, g := range groups {
		pres := g.pres
		for len(pres) > 0 {
			n := len(pres)
			if n > maxPerMsg {
				n = maxPerMsg
			}
			p.send(bgp.Update{Attrs: g.attrs, Announced: pres[:n]})
			pres = pres[n:]
		}
	}
}
