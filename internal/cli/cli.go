// Package cli is every program under cmd/ as library code. Each command is
// one Command-shaped function — Analyze, Collect, Dump, Replay, Serve, Sim,
// Store, Experiments — and each cmd/*/main.go is one call to Main, so the
// commands run in-process under test: TestReadme executes the README's
// recipes through them, line by line.
//
// Four things are declared here once for all of them:
//
//   - the store flag group (-store, -block-cache-bytes, -chaos),
//     which becomes a command's store.Options in one place; each command
//     registers -store and only those of the rest it acts on;
//   - the query flag group (-from, -to, -peer, -origin, -prefix, -type),
//     which becomes one store.Query, applied by openRecords alike to a log,
//     a store or a server, so the three give the same records;
//   - the observability flag group (-metrics-addr, -trace-sample);
//   - the signal path: Main turns the first SIGINT or SIGTERM into the
//     cancellation of the context the command runs under — a command holding
//     a session, a listener or a store drains and closes it, one reading a
//     log or a query stops at the next record, one in a step that cannot
//     stop part-way says so and finishes it — and puts the default action
//     back, so a second signal kills the process.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"instability/internal/collector"
	"instability/internal/faults"
	"instability/internal/intern"
	"instability/internal/obs"
	"instability/internal/serve"
	"instability/internal/store"
)

// Command is the shape of every command: it parses args (the program name
// excluded), writes its results to stdout and its diagnostics to stderr, and
// returns when it is done or ctx is cancelled.
type Command func(ctx context.Context, args []string, stdout, stderr io.Writer) error

// Main runs cmd as the process's program and exits with its status: 0, 2 for
// a command-line mistake, 130 when a signal cut the run short, 1 otherwise.
func Main(name string, cmd Command) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // the first signal cancels ctx; a second one kills
	err := cmd(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(exitCode(name, ctx, err, os.Stderr))
}

func exitCode(name string, ctx context.Context, err error, stderr io.Writer) int {
	var ue usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		if !ue.printed {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
		}
		return 2
	}
	msg, code := err.Error(), 1
	if ctx.Err() != nil {
		code = 130
		if errors.Is(err, context.Canceled) {
			msg = "interrupted"
		}
	}
	fmt.Fprintf(stderr, "%s: %s\n", name, msg)
	return code
}

// usageError is a command-line mistake. A flag-parse error has already been
// printed, with the usage, by its flag set.
type usageError struct {
	err     error
	printed bool
}

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func usagef(format string, a ...any) error { return usageError{err: fmt.Errorf(format, a...)} }

// setup returns a command's flag set, which reports -h and mistakes on
// stderr instead of exiting, and its logger.
func setup(name string, stderr io.Writer) (*flag.FlagSet, *log.Logger) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs, log.New(stderr, name+": ", 0)
}

// parse parses args into fs; -h comes back as flag.ErrHelp, a mistake as a
// usageError.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError{err: err, printed: true}
	}
	return err
}

// storeFlags is the store flag group: the one declaration of the store
// flags, and the one place they become a store.Options.
type storeFlags struct {
	dir        string
	blockCache int64
	chaos      string
	plan       *faults.Plan // -chaos, parsed by check
}

// The store group's flags besides -store. A command registers those it acts
// on; one it leaves out keeps its zero value — block cache off, no faults.
const (
	blockCacheFlag = 1 << iota // -block-cache-bytes: the command queries
	chaosFlag                  // -chaos: deterministic fault injection

	allStoreFlags = blockCacheFlag | chaosFlag
)

func addStoreFlags(fs *flag.FlagSet, dirUsage string, which int) *storeFlags {
	f := &storeFlags{}
	fs.StringVar(&f.dir, "store", "", dirUsage)
	if which&blockCacheFlag != 0 {
		fs.Int64Var(&f.blockCache, "block-cache-bytes", 32<<20, "byte budget of the shared parsed-block cache (0 = off)")
	}
	if which&chaosFlag != 0 {
		fs.StringVar(&f.chaos, "chaos", "", "inject deterministic faults, e.g. seed=42,failsync=3,flipreadp=0.01 (see internal/faults)")
	}
	return f
}

// check parses -chaos right after the flags are. The spec faults the
// store's I/O when -store is set, and the planes in on (faults.ConnPlane for
// bgpcollect's dialed connections) besides; a bad spec, one with nothing to
// fault, or one setting a key that faults none of those is a usage error
// before the command does anything.
func (f *storeFlags) check(on int) error {
	if f.chaos == "" {
		return nil
	}
	plan, err := faults.ParseSpec(f.chaos)
	if err != nil {
		return usageError{err: err}
	}
	if f.dir != "" {
		on |= faults.DiskPlane
	}
	if idle := plan.Idle(on); len(idle) > 0 {
		return usagef("-chaos %s: faults nothing this command runs", strings.Join(idle, ","))
	}
	if on == 0 {
		return usagef("-chaos needs -store")
	}
	f.plan = &plan
	return nil
}

// open opens the store at -store with the group's options over base, which
// carries what only some commands set (Window, AutoSealRecords).
func (f *storeFlags) open(lg *log.Logger, base store.Options) (*store.Store, error) {
	if f.dir == "" {
		return nil, usagef("missing -store")
	}
	opts := base
	opts.BlockCacheBytes = f.blockCache
	if f.plan != nil {
		opts.FS = faults.NewInjector(faults.Disk{}, *f.plan)
		lg.Printf("chaos: store I/O faulted with %q", f.chaos)
	}
	return store.Open(f.dir, opts)
}

// obsFlags is the observability flag group: the one declaration of
// -metrics-addr and -trace-sample.
type obsFlags struct {
	metricsAddr string
	traceSample float64
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	f := &obsFlags{}
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "serve /metrics, /healthz, /debug/traces, /debug/pprof on this address")
	return f
}

// withTrace adds -trace-sample, for a command whose run is traced.
func (f *obsFlags) withTrace(fs *flag.FlagSet, def float64) *obsFlags {
	fs.Float64Var(&f.traceSample, "trace-sample", def, "head-sampling probability for traces (0 = off, 1 = always); kept traces are at /debug/traces")
	return f
}

// start turns tracing on at -trace-sample and serves metrics at
// -metrics-addr for as long as the command runs; stop ends both.
func (f *obsFlags) start(lg *log.Logger) (stop func(), err error) {
	if f.traceSample > 0 {
		obs.EnableTracing(obs.TraceConfig{SampleRate: f.traceSample})
	}
	if f.metricsAddr == "" {
		return func() {}, nil
	}
	msrv, err := obs.Serve(f.metricsAddr, obs.Default())
	if err != nil {
		return nil, err
	}
	lg.Printf("metrics on http://%s/metrics", msrv.Addr())
	return func() { msrv.Close() }, nil
}

// root makes the run one trace when -trace-sample is on: what ctx carries
// below becomes children of a root span named name, which finish ends.
func (f *obsFlags) root(ctx context.Context, name string) (_ context.Context, finish func()) {
	if f.traceSample <= 0 {
		return ctx, func() {}
	}
	ctx, sp := obs.DefaultTracer().Start(ctx, name)
	return ctx, func() { sp.Finish() }
}

// finishing is for a step that cannot stop part-way: if ctx is cancelled
// before done is called, it logs that the command is finishing step and that
// a second signal aborts, so a first Ctrl-C is never silently ignored.
func finishing(ctx context.Context, lg *log.Logger, step string) (done func() bool) {
	return context.AfterFunc(ctx, func() { lg.Printf("interrupted: finishing %s (again to abort)", step) })
}

// The query group's flags besides -from, -to, -peer and -prefix, which every
// command that selects records takes.
const (
	originFlag = 1 << iota // -origin
	typeFlag               // -type
)

// addQueryFlags declares the query flag group, the one declaration of the
// query flags. They fill a serve.QuerySpec, the spelling a server is sent,
// which openRecords parses once into the store.Query every source is read
// with.
func addQueryFlags(fs *flag.FlagSet, which int) *serve.QuerySpec {
	spec := &serve.QuerySpec{}
	fs.StringVar(&spec.From, "from", "", `start time (inclusive): RFC3339 or "YYYY-MM-DD[ HH:MM[:SS]]"`)
	fs.StringVar(&spec.To, "to", "", "end time (exclusive)")
	fs.StringVar(&spec.Peer, "peer", "", "comma-separated peer AS list")
	fs.StringVar(&spec.Prefix, "prefix", "", "exact prefix (CIDR)")
	if which&originFlag != 0 {
		fs.StringVar(&spec.Origin, "origin", "", "comma-separated origin AS list (announcements only)")
	}
	if which&typeFlag != 0 {
		fs.StringVar(&spec.Type, "type", "", "comma-separated record types: A,W,UP,DOWN")
	}
	return spec
}

// openRecords opens what a command reads, selected by spec: the log at in
// when it is set, else the server rc when it is set, else the store at
// -store, which stays open until the reader is closed. A log is read through
// the store's own predicate, so all three give the same records. It also
// returns the log's exchange name ("MRT" for an MRT file), "remote" or
// "store". A spec that does not parse is a usage error, found before any
// source is opened.
func openRecords(ctx context.Context, lg *log.Logger, in string, sf *storeFlags, rc *serve.Client, spec serve.QuerySpec) (collector.RecordReader, string, error) {
	q, err := spec.Parse()
	if err != nil {
		return nil, "", usageError{err: err}
	}
	switch {
	case in != "":
		r, exchange, err := collector.OpenAny(in)
		if err != nil {
			return nil, "", err
		}
		if exchange == "" {
			exchange = "MRT"
		}
		return filtered{r, q.Matches}, exchange, nil
	case rc != nil:
		r, err := rc.QueryCtx(ctx, spec)
		if err != nil {
			return nil, "", err
		}
		return r, "remote", nil
	}
	s, err := sf.open(lg, store.Options{})
	if err != nil {
		return nil, "", err
	}
	r, err := s.QueryCtx(ctx, q)
	if err != nil {
		s.Close()
		return nil, "", err
	}
	return storeReader{r, s}, "store", nil
}

// filtered reads the records of a reader that keep accepts.
type filtered struct {
	collector.RecordReader
	keep func(*collector.Record) bool
}

func (f filtered) Next() (collector.Record, error) {
	for {
		rec, err := f.RecordReader.Next()
		if err != nil || f.keep(&rec) {
			return rec, err
		}
	}
}

// storeReader keeps the store open for the life of the query reader.
type storeReader struct {
	*store.Reader
	s *store.Store
}

func (sr storeReader) Close() error {
	sr.Reader.Close()
	return sr.s.Close()
}

// cancellable makes r's Next fail with ctx's error once ctx is cancelled, so
// a command reading a log or a query stops at the first signal.
func cancellable(ctx context.Context, r collector.RecordReader) collector.RecordReader {
	return ctxReader{r, ctx, ctx.Done()}
}

type ctxReader struct {
	collector.RecordReader
	ctx  context.Context
	done <-chan struct{} // a non-blocking receive is cheaper per record than ctx.Err
}

func (r ctxReader) Next() (collector.Record, error) {
	select {
	case <-r.done:
		return collector.Record{}, r.ctx.Err()
	default:
		return r.RecordReader.Next()
	}
}

// printIntern reports the process's attribute interners, when they were
// used. Every count is summed over the interning tables: a tuple that two
// tables (say, a classifier and a replay's sessions) intern counts once in
// each.
func printIntern(w io.Writer) {
	if hits, misses, paths := intern.Stats(); hits+misses > 0 {
		fmt.Fprintf(w, "attr intern: %.1f%% hit rate (%d lookups, %d tuples interned, %d paths interned, summed over tables)\n",
			100*float64(hits)/float64(hits+misses), hits+misses, misses, paths)
	}
}
