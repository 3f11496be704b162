// Store demonstrates the irtlstore as the campaign archive it is meant to
// be: a month of synthetic exchange traffic is ingested into a
// time-partitioned store, and a question the paper's workflow asks
// constantly — "give me the pathological withdrawals from this peer in this
// week" — is answered through the query API. The query's EXPLAIN profile
// shows the per-segment indexes doing their job: most of the store is never
// read.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/store"
	"instability/internal/workload"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "irtlstore-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A small four-week campaign with a pathological flood in week two —
	// the kind of event the paper traces back to a single misbehaving peer.
	cfg := workload.SmallConfig()
	cfg.Days = 28
	cfg.Incidents = []workload.Incident{
		{Kind: workload.PathologicalFlood, Day: 9, Magnitude: 1},
	}
	g, err := workload.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Ingest the live stream straight into the store, and classify it on
	// the way through to find the WWDup-heaviest (peer, week) — the
	// question we will then put to the store's indexes.
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	w := s.Writer()
	cls := core.NewClassifier()
	type peerWeek struct {
		peer bgp.ASN
		week time.Time
	}
	wwdups := make(map[peerWeek]int)
	n := 0
	g.Run(func(rec collector.Record) {
		if err := w.Append(rec); err != nil {
			log.Fatal(err)
		}
		n++
		if cls.Classify(rec).Class == core.WWDup {
			week := rec.Time.Truncate(7 * 24 * time.Hour)
			wwdups[peerWeek{rec.PeerAS, week}]++
		}
	}, nil)
	if err := w.Seal(); err != nil {
		log.Fatal(err)
	}
	st := s.Stats()
	fmt.Printf("ingested %d records into %s\n", n, dir)
	fmt.Printf("store: %d daily segments, %d column-coded blocks\n\n", st.Segments, st.Blocks)

	var worst peerWeek
	for pw, c := range wwdups {
		if c > wwdups[worst] {
			worst = pw
		}
	}
	fmt.Printf("WWDup-heaviest slice: peer AS%d, week of %s (%d WWDups seen live)\n",
		worst.peer, worst.week.Format("2006-01-02"), wwdups[worst])

	// Now answer it from the store: all withdrawals from that peer in that
	// week. The time range prunes segments, the peer posting lists prune
	// blocks, and only the surviving blocks are read.
	q := store.Query{
		From:   worst.week,
		To:     worst.week.AddDate(0, 0, 7),
		PeerAS: []bgp.ASN{worst.peer},
		Types:  []collector.RecType{collector.Withdraw},
	}
	r, err := s.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	matched := 0
	var first, last collector.Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		if matched == 0 {
			first = rec
		}
		last = rec
		matched++
	}
	scan := r.Explain()
	fmt.Printf("\nquery: withdrawals from AS%d in [%s, %s)\n",
		worst.peer, q.From.Format("2006-01-02"), q.To.Format("2006-01-02"))
	fmt.Printf("  %d records matched\n", matched)
	if matched > 0 {
		fmt.Printf("  first: %v\n  last:  %v\n", first, last)
	}
	fmt.Printf("  pushdown: scanned %d of %d segments, read %d of %d blocks\n",
		scan.SegmentsScanned, scan.SegmentsTotal, scan.BlocksScanned, scan.BlocksTotal)
}
