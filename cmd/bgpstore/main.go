// Bgpstore manages an irtlstore: an embedded, time-partitioned BGP update
// store with indexed queries (see internal/store). It turns flat collector
// logs into a directory of sealed, indexed segments and answers sliced
// questions — by time window, peer AS, origin AS, prefix, update type —
// without rescanning nine months of gzip.
//
// Usage:
//
//	bgpstore ingest  -store db maeeast.irtl.gz riped.mrt.gz ...
//	bgpstore query   -store db -from 1996-05-01 -to 1996-05-08 -origin 690 -type W
//	bgpstore query   -store db -peer 701 -out slice.irtl.gz
//	bgpstore compact -store db
//	bgpstore stats   -store db
//
// Query prints matching records in bgpdump-style lines (or writes a native
// log with -out, which bgpanalyze and bgpreplay consume); -scanstats shows
// how much of the store the index skipped.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"instability/internal/collector"
	"instability/internal/faults"
	"instability/internal/obs"
	"instability/internal/store"
)

// serveMetrics starts the exposition server when addr is nonempty; pprof
// and the store's live ingest/query metrics become scrapeable for the life
// of the command.
func serveMetrics(addr string) {
	if addr == "" {
		return
	}
	msrv, err := obs.Serve(addr, obs.Default())
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("metrics on http://%s/metrics", msrv.Addr())
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bgpstore: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "ingest":
		cmdIngest(os.Args[2:])
	case "query":
		cmdQuery(os.Args[2:])
	case "compact":
		cmdCompact(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bgpstore {ingest|query|compact|stats} -store DIR [flags] [files]")
	os.Exit(2)
}

func openStore(dir string, window time.Duration, autoSeal, sealWorkers int, chaos string, cacheBytes int64, noMmap bool) *store.Store {
	if dir == "" {
		log.Fatal("missing -store")
	}
	opts := store.Options{Window: window, AutoSealRecords: autoSeal, SealWorkers: sealWorkers,
		BlockCacheBytes: cacheBytes, NoMmap: noMmap}
	if chaos != "" {
		plan, err := faults.ParseSpec(chaos)
		if err != nil {
			log.Fatal(err)
		}
		opts.FS = faults.NewInjector(faults.Disk{}, plan)
		log.Printf("chaos: store I/O faulted with %q", chaos)
	}
	s, err := store.Open(dir, opts)
	if err != nil {
		log.Fatal(err)
	}
	return s
}

// chaosUsage is the shared help text for the per-command -chaos flag.
const chaosUsage = "inject deterministic store I/O faults, e.g. seed=42,failsync=3,flipreadp=0.01 (see internal/faults)"

// Shared help text for the read-path tuning flags.
const (
	cacheUsage  = "byte budget of the shared decompressed-block cache (0 = off)"
	noMmapUsage = "disable memory-mapped segment reads, forcing the ReadAt path"
)

// Shared help text for the write-path tuning flag.
const sealWorkersUsage = "block encode/compress workers for seals and compactions (1 = serial)"

func cmdIngest(args []string) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	var (
		dir         = fs.String("store", "", "store directory")
		window      = fs.Duration("window", 24*time.Hour, "segment time-partition width")
		autoSeal    = fs.Int("autoseal", 1<<18, "seal automatically after this many buffered records (0 = at end only)")
		sealWorkers = fs.Int("seal-workers", runtime.GOMAXPROCS(0), sealWorkersUsage)
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /varz, /healthz, /debug/pprof on this address")
		chaos       = fs.String("chaos", "", chaosUsage)
		cacheBytes  = fs.Int64("block-cache-bytes", 32<<20, cacheUsage)
		noMmap      = fs.Bool("no-mmap", false, noMmapUsage)
	)
	fs.Parse(args)
	if fs.NArg() == 0 {
		log.Fatal("ingest: no input files")
	}
	serveMetrics(*metricsAddr)
	s := openStore(*dir, *window, *autoSeal, *sealWorkers, *chaos, *cacheBytes, *noMmap)
	w := s.Writer()
	total := 0
	for _, path := range fs.Args() {
		span := obs.StartSpan("ingest")
		r, _, err := collector.OpenAny(path)
		if err != nil {
			log.Fatal(err)
		}
		n, err := w.AppendAll(r)
		r.Close()
		span.Add(int64(n))
		span.End()
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		fmt.Printf("%s: %d records\n", path, n)
		total += n
	}
	if err := s.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d records into %s\n", total, *dir)
}

func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	var (
		dir         = fs.String("store", "", "store directory")
		from        = fs.String("from", "", "start time (inclusive): RFC3339 or YYYY-MM-DD[ HH:MM:SS]")
		to          = fs.String("to", "", "end time (exclusive)")
		peers       = fs.String("peer", "", "comma-separated peer AS list")
		origins     = fs.String("origin", "", "comma-separated origin AS list (announcements only)")
		prefix      = fs.String("prefix", "", "exact prefix (CIDR)")
		types       = fs.String("type", "", "comma-separated record types: A,W,UP,DOWN")
		out         = fs.String("out", "", "write results as a native log instead of printing")
		exchange    = fs.String("exchange", "store", "exchange name for the -out log header")
		countOnly   = fs.Bool("count", false, "print only the match count")
		scanStats   = fs.Bool("scanstats", false, "print index pushdown statistics to stderr")
		explain     = fs.Bool("explain", false, "print the query's EXPLAIN profile to stderr after the scan")
		limit       = fs.Int("n", 0, "stop after this many records (0 = all)")
		parallel    = fs.Int("parallel", runtime.GOMAXPROCS(0), "segment-scan decompression workers (1 = serial scan)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /varz, /healthz, /debug/pprof on this address")
		traceSample = fs.Float64("trace-sample", 0, "trace this query (0 = off, 1 = always); view at -metrics-addr /debug/traces")
		chaos       = fs.String("chaos", "", chaosUsage)
		cacheBytes  = fs.Int64("block-cache-bytes", 32<<20, cacheUsage)
		noMmap      = fs.Bool("no-mmap", false, noMmapUsage)
	)
	fs.Parse(args)
	q, err := store.ParseQuery(*from, *to, *peers, *origins, *prefix, *types)
	if err != nil {
		log.Fatal(err)
	}
	serveMetrics(*metricsAddr)
	ctx := context.Background()
	if *traceSample > 0 {
		obs.EnableTracing(obs.TraceConfig{SampleRate: *traceSample})
		var troot *obs.TraceSpan
		ctx, troot = obs.DefaultTracer().Start(ctx, "bgpstore_query")
		defer troot.Finish()
	}
	s := openStore(*dir, 0, 0, 0, *chaos, *cacheBytes, *noMmap)
	defer s.Close()
	r, err := s.QueryParallelCtx(ctx, q, *parallel)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()

	var lw *collector.Writer
	if *out != "" {
		if lw, err = collector.Create(*out, *exchange); err != nil {
			log.Fatal(err)
		}
	}
	n := 0
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		n++
		switch {
		case lw != nil:
			if err := lw.Write(rec); err != nil {
				log.Fatal(err)
			}
		case !*countOnly:
			fmt.Println(rec)
		}
		if *limit > 0 && n >= *limit {
			break
		}
	}
	if lw != nil {
		if err := lw.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d records to %s\n", n, *out)
	} else if *countOnly {
		fmt.Println(n)
	}
	if *scanStats {
		st := r.Stats()
		fmt.Fprintf(os.Stderr, "segments %d/%d scanned, blocks %d/%d decompressed, %d records decoded, %d matched\n",
			st.SegmentsScanned, st.SegmentsTotal, st.BlocksScanned, st.BlocksTotal,
			st.RecordsScanned+st.MemRecords, st.RecordsMatched)
		fmt.Fprintf(os.Stderr, "generation %d, segment-set fingerprint %016x\n",
			s.Generation(), s.Stats().Fingerprint)
		if st.BlocksQuarantined > 0 {
			fmt.Fprintf(os.Stderr, "WARNING: %d corrupt blocks quarantined (result is partial)\n", st.BlocksQuarantined)
		}
	}
	if *explain {
		fmt.Fprintln(os.Stderr, r.Explain().String())
	}
}

func cmdCompact(args []string) {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	dir := fs.String("store", "", "store directory")
	sealWorkers := fs.Int("seal-workers", runtime.GOMAXPROCS(0), sealWorkersUsage)
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /varz, /healthz, /debug/pprof on this address")
	chaos := fs.String("chaos", "", chaosUsage)
	noMmap := fs.Bool("no-mmap", false, noMmapUsage)
	fs.Parse(args)
	serveMetrics(*metricsAddr)
	// Compaction streams each input once and bypasses the cache by design.
	s := openStore(*dir, 0, 0, *sealWorkers, *chaos, 0, *noMmap)
	defer s.Close()
	st, err := s.Compact()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compacted %d segments into %d (%d inputs merged, %d records rewritten)\n",
		st.SegmentsBefore, st.SegmentsAfter, st.SegmentsMerged, st.RecordsRewritten)
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dir := fs.String("store", "", "store directory")
	fs.Parse(args)
	s := openStore(*dir, 0, 0, 0, "", 0, false)
	defer s.Close()
	st := s.Stats()
	fmt.Printf("segments      %d (%d v1 inline, %d v2 dictionary, %d v3 column-coded)\n",
		st.Segments, st.SegmentsV1, st.SegmentsV2, st.SegmentsV3)
	fmt.Printf("blocks        %d\n", st.Blocks)
	fmt.Printf("records       %d sealed, %d unsealed\n", st.Records, st.MemRecords)
	fmt.Printf("time windows  %d\n", st.Windows)
	fmt.Printf("disk          %d bytes segments, %d bytes WAL\n", st.DiskBytes, st.WALBytes)
	fmt.Printf("generation    %d\n", st.Generation)
	fmt.Printf("fingerprint   %016x\n", st.Fingerprint)
	fmt.Printf("mmap          %d segments mapped\n", st.MmapSegments)
}
