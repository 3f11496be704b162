package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"time"

	"instability/internal/collector"
	"instability/internal/obs"
	"instability/internal/store"
)

// Store is bgpstore, which manages an irtlstore: an embedded,
// time-partitioned BGP update store with indexed queries (see
// internal/store). It turns flat collector logs into a directory of sealed,
// indexed segments and answers sliced questions — by time window, peer AS,
// origin AS, prefix, update type — without rescanning nine months of gzip.
//
//	bgpstore ingest  -store db maeeast.irtl.gz maewest.mrt.gz ...
//	bgpstore query   -store db -from 1996-05-01 -to 1996-05-08 -origin 690 -type W
//	bgpstore query   -store db -peer 701 -out slice.irtl.gz
//	bgpstore compact -store db
//	bgpstore stats   -store db
//
// Query prints matching records in bgpdump-style lines (or writes a native
// log with -out, which bgpanalyze and bgpreplay consume); -scanstats shows
// how much of the store the index skipped, -explain the whole profile.
// Each subcommand takes the store and observability flags it acts on.
func Store(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	subs := map[string]func(context.Context, *storeCmd) error{
		"ingest": storeIngest, "query": storeQuery, "compact": storeCompact, "stats": storeStats,
	}
	if len(args) == 0 || subs[args[0]] == nil {
		return usagef("usage: bgpstore {ingest|query|compact|stats} -store DIR [flags] [files]")
	}
	name := "bgpstore " + args[0]
	fs, lg := setup(name, stderr)
	c := &storeCmd{FlagSet: fs, lg: lg, stdout: stdout, stderr: stderr, args: args[1:]}
	defer c.close()
	return subs[args[0]](ctx, c)
}

// storeCmd is what every bgpstore subcommand shares: its flag set, its
// output, and — after parse — its metrics.
type storeCmd struct {
	*flag.FlagSet
	lg             *log.Logger
	stdout, stderr io.Writer
	sf             *storeFlags
	of             *obsFlags // nil: the subcommand serves no metrics
	args           []string
	stopObs        func()
}

// addStore declares -store and which of the store group's other flags the
// subcommand takes.
func (c *storeCmd) addStore(which int) {
	c.sf = addStoreFlags(c.FlagSet, "store directory", which)
}

// parse parses the subcommand's arguments — its own flags are declared by
// then — and starts its observability; close, deferred by Store, stops it.
func (c *storeCmd) parse() error {
	if err := parse(c.FlagSet, c.args); err != nil {
		return err
	}
	if err := c.sf.check(); err != nil {
		return err
	}
	if c.of == nil {
		return nil
	}
	var err error
	c.stopObs, err = c.of.start(c.lg)
	return err
}

func (c *storeCmd) close() {
	if c.stopObs != nil {
		c.stopObs()
	}
}

func storeIngest(ctx context.Context, c *storeCmd) error {
	window := c.Duration("window", 24*time.Hour, "segment time-partition width")
	autoSeal := c.Int("autoseal", 1<<18, "seal automatically after this many buffered records (0 = at end only)")
	c.addStore(allStoreFlags)
	c.of = addObsFlags(c.FlagSet)
	if err := c.parse(); err != nil {
		return err
	}
	if c.NArg() == 0 {
		return usagef("ingest: no input files")
	}
	s, err := c.sf.open(c.lg, store.Options{Window: *window, AutoSealRecords: *autoSeal})
	if err != nil {
		return err
	}
	total := 0
	for _, path := range c.Args() {
		n, err := ingestFile(ctx, s.Writer(), path)
		if err != nil {
			s.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(c.stdout, "%s: %d records\n", path, n)
		total += n
	}
	if err := s.Close(); err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "ingested %d records into %s\n", total, c.sf.dir)
	return nil
}

func ingestFile(ctx context.Context, w *store.Writer, path string) (int, error) {
	span := obs.StartSpan("ingest")
	defer span.End()
	r, _, err := collector.OpenAny(path)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	n, err := w.AppendAll(cancellable(ctx, r))
	span.Add(int64(n))
	return n, err
}

func storeQuery(ctx context.Context, c *storeCmd) error {
	var (
		from      = c.String("from", "", "start time (inclusive): RFC3339 or YYYY-MM-DD[ HH:MM:SS]")
		to        = c.String("to", "", "end time (exclusive)")
		peers     = c.String("peer", "", "comma-separated peer AS list")
		origins   = c.String("origin", "", "comma-separated origin AS list (announcements only)")
		prefix    = c.String("prefix", "", "exact prefix (CIDR)")
		types     = c.String("type", "", "comma-separated record types: A,W,UP,DOWN")
		out       = c.String("out", "", "write results as a native log instead of printing")
		exchange  = c.String("exchange", "store", "exchange name for the -out log header")
		countOnly = c.Bool("count", false, "print only the match count")
		scanStats = c.Bool("scanstats", false, "print index pushdown statistics to stderr")
		explain   = c.Bool("explain", false, "print the query's EXPLAIN profile to stderr after the scan")
		limit     = c.Int("n", 0, "stop after this many records (0 = all)")
	)
	c.addStore(blockCacheFlag | noMmapFlag | chaosFlag)
	c.of = addObsFlags(c.FlagSet).withTrace(c.FlagSet, 0)
	if err := c.parse(); err != nil {
		return err
	}
	q, err := store.ParseQuery(*from, *to, *peers, *origins, *prefix, *types)
	if err != nil {
		return usageError{err: err}
	}
	ctx, finish := c.of.root(ctx, "bgpstore_query")
	defer finish()
	s, err := c.sf.open(c.lg, store.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	r, err := s.QueryCtx(ctx, q)
	if err != nil {
		return err
	}
	defer r.Close()

	var lw *collector.Writer
	if *out != "" {
		if lw, err = collector.Create(*out, *exchange); err != nil {
			return err
		}
		defer lw.Close()
	}
	next := cancellable(ctx, r)
	n := 0
	for *limit == 0 || n < *limit {
		rec, err := next.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		n++
		switch {
		case lw != nil:
			if err := lw.Write(rec); err != nil {
				return err
			}
		case !*countOnly:
			fmt.Fprintln(c.stdout, rec)
		}
	}
	if lw != nil {
		if err := lw.Close(); err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "wrote %d records to %s\n", n, *out)
	} else if *countOnly {
		fmt.Fprintln(c.stdout, n)
	}
	if *scanStats {
		st := r.Stats()
		fmt.Fprintf(c.stderr, "segments %d/%d scanned, blocks %d/%d read, %d records decoded, %d matched\n",
			st.SegmentsScanned, st.SegmentsTotal, st.BlocksScanned, st.BlocksTotal,
			st.RecordsScanned+st.MemRecords, st.RecordsMatched)
		fmt.Fprintf(c.stderr, "generation %d, segment-set fingerprint %016x\n",
			s.Generation(), s.Stats().Fingerprint)
		if st.BlocksQuarantined > 0 {
			fmt.Fprintf(c.stderr, "WARNING: %d corrupt blocks quarantined (result is partial)\n", st.BlocksQuarantined)
		}
	}
	if *explain {
		fmt.Fprintln(c.stderr, r.Explain().String())
	}
	return nil
}

func storeCompact(ctx context.Context, c *storeCmd) error {
	// Compaction streams each input once and bypasses the block cache.
	c.addStore(sealWorkersFlag | noMmapFlag | chaosFlag)
	c.of = addObsFlags(c.FlagSet)
	if err := c.parse(); err != nil {
		return err
	}
	s, err := c.sf.open(c.lg, store.Options{})
	if err != nil {
		return err
	}
	done := finishing(ctx, c.lg, "the compaction")
	st, err := s.Compact()
	done()
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "compacted %d segments into %d (%d inputs merged, %d records rewritten)\n",
		st.SegmentsBefore, st.SegmentsAfter, st.SegmentsMerged, st.RecordsRewritten)
	return nil
}

func storeStats(ctx context.Context, c *storeCmd) error {
	c.addStore(0)
	if err := c.parse(); err != nil {
		return err
	}
	s, err := c.sf.open(c.lg, store.Options{})
	if err != nil {
		return err
	}
	st := s.Stats()
	if err := s.Close(); err != nil {
		return err
	}
	w := c.stdout
	fmt.Fprintf(w, "segments      %d (%d v1 inline, %d v2 dictionary, %d v3 column-coded)\n",
		st.Segments, st.SegmentsV1, st.SegmentsV2, st.SegmentsV3)
	fmt.Fprintf(w, "blocks        %d\n", st.Blocks)
	fmt.Fprintf(w, "records       %d sealed, %d unsealed\n", st.Records, st.MemRecords)
	fmt.Fprintf(w, "time windows  %d\n", st.Windows)
	fmt.Fprintf(w, "disk          %d bytes segments, %d bytes WAL\n", st.DiskBytes, st.WALBytes)
	fmt.Fprintf(w, "generation    %d\n", st.Generation)
	fmt.Fprintf(w, "fingerprint   %016x\n", st.Fingerprint)
	fmt.Fprintf(w, "mmap          %d segments mapped\n", st.MmapSegments)
	return nil
}
