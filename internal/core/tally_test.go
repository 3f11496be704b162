package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
)

// tallyStream is three days of updates from many peers over a few prefixes,
// with session records mixed in: prefixes keep gaining peers through the
// first day, so their slot slices grow (and move) mid-day.
func tallyStream() [][]collector.Record {
	rng := rand.New(rand.NewSource(32))
	peers := make([]PeerKey, 12)
	for i := range peers {
		peers[i] = PeerKey{AS: 690 + bgp.ASN(i%5), Addr: netaddr.Addr(0xc620ba00 + uint32(i))}
	}
	prefixes := []netaddr.Prefix{pfxX, pfxY, netaddr.MustParsePrefix("128.9.0.0/16"), netaddr.MustParsePrefix("10.0.0.0/8")}
	var days [][]collector.Record
	start := DateOf(t0).Time()
	for d := 0; d < 3; d++ {
		var day []collector.Record
		tm := start.AddDate(0, 0, d)
		for tm = tm.Add(time.Duration(rng.Intn(60)) * time.Second); DateOf(tm) == DateOf(start)+Date(d); tm = tm.Add(time.Duration(rng.Intn(90)) * time.Second) {
			p, pfx := peers[rng.Intn(len(peers))], prefixes[rng.Intn(len(prefixes))]
			switch r := rng.Intn(20); {
			case r == 0:
				day = append(day, collector.Record{Time: tm, Type: collector.SessionDown, PeerAS: p.AS, PeerAddr: p.Addr})
			case r < 7:
				day = append(day, wd(tm, p, pfx))
			case r < 13:
				day = append(day, ann(tm, p, pfx, attrs1()))
			default:
				day = append(day, ann(tm, p, pfx, attrs2()))
			}
		}
		days = append(days, day)
	}
	return days
}

// TestRouteHandleOrders pins the accumulator's route-slot counters: one
// stream folded in Feed order, as a day of Classify and then that day's
// Adds (so the day's earlier handles go stale as slot slices move), and as
// hand-built events with no handle must give identical DayStats. So must two
// accumulators fed the same events from one classifier, whose stamps cross
// on every slot.
func TestRouteHandleOrders(t *testing.T) {
	days := tallyStream()

	cl, feed := NewClassifier(), NewAccumulator()
	for _, day := range days {
		for _, rec := range day {
			feed.Add(cl.Classify(rec))
		}
		feed.EndDay(cl, DateOf(day[0].Time))
	}

	cl, staged := NewClassifier(), NewAccumulator()
	stale := 0
	for _, day := range days {
		evs := make([]Event, 0, len(day))
		for _, rec := range day {
			evs = append(evs, cl.Classify(rec))
		}
		for _, ev := range evs {
			if ev.route != nil && !cl.holds(ev.route, ev.Record) {
				stale++
			}
			staged.Add(ev)
		}
		staged.EndDay(cl, DateOf(day[0].Time))
	}
	if stale == 0 {
		t.Fatal("no stale route handle was exercised")
	}

	cl, bare := NewClassifier(), NewAccumulator()
	for _, day := range days {
		for _, rec := range day {
			ev := cl.Classify(rec)
			bare.Add(Event{Record: ev.Record, Class: ev.Class, PolicyShift: ev.PolicyShift, SinceAny: ev.SinceAny})
		}
		bare.EndDay(cl, DateOf(day[0].Time))
	}

	cl, first, second := NewClassifier(), NewAccumulator(), NewAccumulator()
	for _, day := range days {
		for _, rec := range day {
			ev := cl.Classify(rec)
			first.Add(ev)
			second.Add(ev)
		}
		first.EndDay(cl, DateOf(day[0].Time))
		second.EndDay(cl, DateOf(day[0].Time))
	}

	for name, acc := range map[string]*Accumulator{
		"classify-then-add": staged, "no-handle": bare, "first-of-two": first, "second-of-two": second,
	} {
		if got, want := acc.Dates(), feed.Dates(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: dates %v, feed order %v", name, got, want)
		}
		for _, d := range feed.Dates() {
			if !reflect.DeepEqual(*acc.Days[d], *feed.Days[d]) {
				t.Errorf("%s: day %v differs from feed order", name, d)
			}
		}
	}
}

// holds reports whether slot is the live slot of rec's (peer, prefix), not a
// copy left behind when the prefix's slot slice grew.
func (c *Classifier) holds(slot *routeState, rec collector.Record) bool {
	rs := c.routes[rec.Prefix.Key()]
	for i := range rs {
		if &rs[i] == slot {
			return true
		}
	}
	return false
}

// TestTenMinSlotMatchesClock checks the arithmetic ten-minute slot against
// the wall-clock one on both sides of the epoch.
func TestTenMinSlotMatchesClock(t *testing.T) {
	for _, tm := range []time.Time{
		time.Date(1969, 12, 31, 0, 0, 0, 0, time.UTC),
		time.Date(1969, 12, 31, 12, 5, 0, 0, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Unix(0, 0).UTC(),
		time.Date(1996, 8, 1, 23, 55, 0, 0, time.UTC),
	} {
		a := NewAccumulator()
		a.Add(Event{Record: wd(tm, peerA, pfxX), Class: WWDup})
		s := a.Days[DateOf(tm)]
		if s == nil {
			t.Fatalf("%v: no day %v", tm, DateOf(tm))
		}
		if slot := (tm.Hour()*60 + tm.Minute()) / 10; s.TenMinAll[slot] != 1 {
			t.Errorf("%v: slot %d not counted: %v", tm, slot, s.TenMinAll)
		}
	}
}
