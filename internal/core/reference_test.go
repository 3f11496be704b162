package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/netaddr"
	"instability/internal/workload"
)

// reference is §3 implemented naively: one plain value per (peer, prefix),
// attributes kept as printed values and compared whole, no interning. The
// differential tests below hold core.Classifier to it record by record.
type reference map[refKey]*refRoute

type refKey struct {
	peer   core.PeerKey
	prefix netaddr.Prefix
}

type refRoute struct {
	announced, ever bool
	fwd, all        string    // (NextHop, ASPATH) and every attribute, printed
	last            time.Time // the previous event of any class
}

// plain prints attrs as the reference compares them. Nil and empty slices
// print alike, as the BGP equality rules treat them.
func plain(a bgp.Attrs) (fwd, all string) {
	fwd = fmt.Sprintf("%d %v", uint32(a.NextHop), a.Path.Segments)
	return fwd, fmt.Sprintf("%s %d %t %d %t %d %t %t %d %d %d", fwd, a.Origin, a.HasMED, a.MED,
		a.HasLocalPref, a.LocalPref, a.AtomicAggregate, a.HasAggregator, a.AggregatorAS,
		uint32(a.AggregatorAddr), a.Communities)
}

func (r reference) classify(rec collector.Record) core.Event {
	ev := core.Event{Record: rec, Class: core.Other}
	if rec.Type != collector.Announce && rec.Type != collector.Withdraw {
		return ev
	}
	k := refKey{core.PeerKeyOf(rec), rec.Prefix}
	st := r[k]
	if st == nil {
		st = &refRoute{}
		r[k] = st
	}
	if rec.Type == collector.Announce {
		fwd, all := plain(rec.Attrs)
		switch {
		case st.announced && fwd == st.fwd:
			ev.Class, ev.PolicyShift = core.AADup, all != st.all
		case st.announced:
			ev.Class = core.AADiff
		case st.ever && fwd == st.fwd:
			ev.Class = core.WADup
		case st.ever:
			ev.Class = core.WADiff
		}
		st.announced, st.ever, st.fwd, st.all = true, true, fwd, all
	} else {
		if !st.announced {
			ev.Class = core.WWDup
		}
		st.announced = false
	}
	if !st.last.IsZero() {
		ev.SinceAny = rec.Time.Sub(st.last)
	}
	st.last = rec.Time
	return ev
}

func (r reference) activeByPeer() map[core.PeerKey]int {
	out := make(map[core.PeerKey]int)
	for k, st := range r {
		if st.announced {
			out[k.peer]++
		}
	}
	return out
}

// verdictsDiffer compares one record's two verdicts on everything but the
// record they both carry.
func verdictsDiffer(i int, rec collector.Record, got, want core.Event) error {
	if got.Class == want.Class && got.PolicyShift == want.PolicyShift && got.SinceAny == want.SinceAny {
		return nil
	}
	return fmt.Errorf("record %d (%v peer %v %v): classifier %v shift=%t any=%v, reference %v shift=%t any=%v",
		i, rec.Type, core.PeerKeyOf(rec), rec.Prefix,
		got.Class, got.PolicyShift, got.SinceAny,
		want.Class, want.PolicyShift, want.SinceAny)
}

// differ feeds recs to a fresh classifier and a fresh reference and reports
// the first record whose verdict differs, then any difference in the
// per-peer table sizes at the end.
func differ(recs []collector.Record) error {
	c, ref := core.NewClassifier(), reference{}
	for i, rec := range recs {
		if err := verdictsDiffer(i, rec, c.Classify(rec), ref.classify(rec)); err != nil {
			return err
		}
	}
	if got, want := c.ActiveByPeer(), ref.activeByPeer(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("ActiveByPeer: classifier %v, reference %v", got, want)
	}
	return nil
}

// refAttrs is the announcement pool the adversarial streams draw from. Each
// entry differs from the first in one way the taxonomy must weigh: next hop
// only, MED only, communities only (and an empty list, which equals none),
// origin only, the path, an AS_SET, an empty path.
var refAttrs = func() []bgp.Attrs {
	base := bgp.Attrs{Origin: bgp.OriginIGP, Path: bgp.PathFromASNs(701, 237), NextHop: 1}
	with := func(f func(*bgp.Attrs)) bgp.Attrs { a := base; f(&a); return a }
	return []bgp.Attrs{
		base,
		with(func(a *bgp.Attrs) { a.NextHop = 2 }),
		with(func(a *bgp.Attrs) { a.HasMED, a.MED = true, 10 }),
		with(func(a *bgp.Attrs) { a.HasMED, a.MED = true, 20 }),
		with(func(a *bgp.Attrs) { a.Communities = []bgp.Community{701<<16 | 1} }),
		with(func(a *bgp.Attrs) { a.Communities = []bgp.Community{} }),
		with(func(a *bgp.Attrs) { a.Origin = bgp.OriginIncomplete }),
		with(func(a *bgp.Attrs) { a.Path = bgp.PathFromASNs(701, 1239, 237) }),
		with(func(a *bgp.Attrs) { a.Path, a.NextHop = bgp.PathFromASNs(1239, 237), 2 }),
		with(func(a *bgp.Attrs) {
			a.Path = bgp.ASPath{Segments: []bgp.PathSegment{
				{Type: bgp.ASSequence, ASNs: []bgp.ASN{701}}, {Type: bgp.ASSet, ASNs: []bgp.ASN{237, 145}}}}
		}),
		with(func(a *bgp.Attrs) { a.Path = bgp.ASPath{} }),
		with(func(a *bgp.Attrs) { a.Path = bgp.PathFromASNs(701, 0, 237) }),
	}
}()

// refRecord decodes one op of an adversarial stream: op picks the record
// type, peer picks one of up to 64 peers (three ASes, distinct routers),
// pick chooses the prefix and the announced attributes.
func refRecord(now time.Time, op, peer, pick int) collector.Record {
	rec := collector.Record{Time: now, PeerAS: bgp.ASN(100 + peer%3), PeerAddr: netaddr.Addr(peer),
		Prefix: netaddr.MustPrefix(netaddr.Addr(0x0a000000|uint32(pick%4)<<8), 24)}
	switch {
	case op < 5:
		rec.Type, rec.Attrs = collector.Announce, refAttrs[pick/4%len(refAttrs)]
	case op < 9:
		rec.Type = collector.Withdraw
	case op == 9:
		rec.Type = collector.SessionDown
	default:
		rec.Type = collector.SessionUp
	}
	return rec
}

// adversarialStream is n seeded records over one to four prefixes and up to
// 64 peers, with withdrawals before announcements, runs of repeated
// withdrawals, attribute-only changes, ties in time, and session records
// interleaved.
func adversarialStream(seed int64, n int) []collector.Record {
	rng := rand.New(rand.NewSource(seed))
	peers, prefixes := 1+rng.Intn(64), 1+rng.Intn(4)
	now := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	var recs []collector.Record
	for len(recs) < n {
		now = now.Add(time.Duration(rng.Intn(3)*rng.Intn(90)) * time.Second)
		rec := refRecord(now, rng.Intn(11), rng.Intn(peers), rng.Intn(prefixes)+4*rng.Intn(len(refAttrs)))
		for k := 1 + rng.Intn(2)*rng.Intn(4); k > 0; k-- {
			recs = append(recs, rec)
		}
	}
	return recs
}

func TestClassifierMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		if err := differ(adversarialStream(seed, 2000)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestClassifierMatchesReferenceCampaign runs a small campaign with
// background incidents and session-reset storms through both, checking the
// per-peer table sizes at every day end.
func TestClassifierMatchesReferenceCampaign(t *testing.T) {
	cfg := workload.SmallConfig()
	cfg.Incidents = []workload.Incident{
		{Kind: workload.PathologicalFlood, Day: 1, Magnitude: 0.5},
		{Kind: workload.SessionResetStorm, Day: 2, Days: 1, Magnitude: 1},
		{Kind: workload.InfrastructureUpgrade, Day: 3, Days: 2, Magnitude: 1},
		{Kind: workload.CollectorOutage, Day: 5, Magnitude: 1},
	}
	g, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, ref := core.NewClassifier(), reference{}
	n := 0
	g.Run(func(rec collector.Record) {
		if err := verdictsDiffer(n, rec, c.Classify(rec), ref.classify(rec)); err != nil {
			t.Fatal(err)
		}
		n++
	}, func(day int, _ time.Time) {
		if got, want := c.ActiveByPeer(), ref.activeByPeer(); !reflect.DeepEqual(got, want) {
			t.Fatalf("day %d ActiveByPeer: classifier %v, reference %v", day, got, want)
		}
	})
	if n == 0 {
		t.Fatal("empty campaign")
	}
}

// FuzzClassifierReference decodes bytes into an op stream, three bytes an
// op (type and peer, prefix and attributes, seconds elapsed), and holds the
// classifier to the reference on it.
func FuzzClassifierReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 0, 1, 0, 4, 0})
	f.Add([]byte{8, 1, 0, 8, 1, 0, 0, 5, 30, 8, 5, 0, 0, 9, 0, 9, 0, 1})
	f.Add([]byte{36, 0, 0, 40, 0, 0, 4, 17, 0, 41, 0, 60, 37, 33, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		now := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
		var recs []collector.Record
		for i := 0; i+2 < len(data); i += 3 {
			now = now.Add(time.Duration(data[i+2]%64) * time.Second)
			recs = append(recs, refRecord(now, int(data[i]%11), int(data[i]/11), int(data[i+1])))
		}
		if err := differ(recs); err != nil {
			t.Fatal(err)
		}
	})
}
