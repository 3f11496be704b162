package instability_test

import (
	"fmt"
	"testing"
	"time"

	"instability"
	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/netaddr"
	"instability/internal/rib"
	"instability/internal/workload"
)

// ribFeed applies one record to a reference RIB.
func ribFeed(r *rib.RIB, rec collector.Record) {
	peer := rib.PeerID{AS: rec.PeerAS, ID: rec.PeerAddr}
	switch rec.Type {
	case collector.Announce:
		r.Update(peer, rec.Prefix, rec.Attrs)
	case collector.Withdraw:
		r.Withdraw(peer, rec.Prefix)
	}
}

// TestCensusMatchesRIB holds the pipeline's census, taken from the
// classifier's routes, to a rib.RIB fed the same stream: at every day end
// CensusByDay must equal the RIB's census, serially and at every shard
// count.
func TestCensusMatchesRIB(t *testing.T) {
	cfg := equivalenceConfig(t)
	run := func(t *testing.T, feed func(collector.Record), endDay func(core.Date) rib.Census) {
		g, err := workload.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := rib.New(0)
		g.Run(func(rec collector.Record) {
			ribFeed(ref, rec)
			feed(rec)
		}, func(day int, end time.Time) {
			got, want := endDay(core.DateOf(end.Add(-time.Second))), ref.TakeCensus()
			if got != want {
				t.Fatalf("day %d: census %+v, RIB %+v", day, got, want)
			}
			if day > 0 && got.Multihomed == 0 {
				t.Fatalf("day %d: degenerate census %+v", day, got)
			}
		})
	}
	t.Run("serial", func(t *testing.T) {
		p := instability.NewPipeline()
		run(t, func(rec collector.Record) { p.Feed(rec) }, func(d core.Date) rib.Census {
			p.EndDay(d)
			return p.CensusByDay[d]
		})
	})
	for _, shards := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pp := instability.NewShardedPipeline(shards)
			defer pp.Close()
			run(t, pp.Feed, func(d core.Date) rib.Census {
				pp.EndDay(d)
				return pp.CensusByDay[d]
			})
		})
	}
}

// TestCensusCountsPathThroughAS0 pins the one place the census and a
// rib.New(0) table part. The RIB refuses a path through its local AS, 0, as
// a loop and keeps the peer's older route (or none); the census counts what
// the collector heard.
func TestCensusCountsPathThroughAS0(t *testing.T) {
	t0 := time.Date(1996, 3, 1, 12, 0, 0, 0, time.UTC)
	a, b := core.PeerKey{AS: 701, Addr: 1}, core.PeerKey{AS: 1239, Addr: 2}
	p, q := netaddr.MustParsePrefix("192.42.113.0/24"), netaddr.MustParsePrefix("35.0.0.0/8")
	ann := func(s int, peer core.PeerKey, pfx netaddr.Prefix, path ...bgp.ASN) collector.Record {
		return collector.Record{Time: t0.Add(time.Duration(s) * time.Second), Type: collector.Announce,
			PeerAS: peer.AS, PeerAddr: peer.Addr, Prefix: pfx, Attrs: bgp.Attrs{Path: bgp.PathFromASNs(path...), NextHop: 1}}
	}
	recs := []collector.Record{
		ann(0, a, p, 701, 237),
		ann(1, b, p, 1239, 237),
		ann(2, a, p, 701, 0, 145), // the RIB keeps 701 237
		ann(3, a, q, 701, 0, 237), // the RIB installs nothing
	}
	pl, ref := instability.NewPipeline(), rib.New(0)
	for _, rec := range recs {
		ribFeed(ref, rec)
		pl.Feed(rec)
	}
	d := core.DateOf(t0)
	pl.EndDay(d)
	if got, want := pl.CensusByDay[d], (rib.Census{Prefixes: 2, Multihomed: 1, OriginASes: 2, UniquePaths: 3}); got != want {
		t.Errorf("census %+v, want %+v", got, want)
	}
	if got, want := ref.TakeCensus(), (rib.Census{Prefixes: 1, Multihomed: 1, OriginASes: 1, UniquePaths: 2}); got != want {
		t.Errorf("RIB census %+v, want %+v", got, want)
	}
	if got := pl.Acc.Days[d].Counts[core.AADiff]; got != 1 {
		t.Errorf("AADiff %d, want 1: the taxonomy reads the path as heard", got)
	}
}
