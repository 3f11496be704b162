package benchkit

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strconv"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/obs"
	"instability/internal/serve"
	"instability/internal/store"
)

// Options configures one benchmark invocation.
type Options struct {
	// Seed draws every query list, request list and shuffle. It does not
	// draw the campaign (see CampaignConfig): like a database benchmark, the
	// data set is fixed and the seed chooses what is asked of it.
	Seed int64
	// Days is the campaign length. Zero means FullDays for RunAll and
	// DriverDays for RunWorkload.
	Days int
	// Small swaps in SmallConfig's topology, so the smoke test covers every
	// workload in seconds.
	Small bool
	// Seconds, when positive, bounds each workload's measurement by wall
	// time (the driver's --seconds). Zero runs the fixed pass counts.
	Seconds float64
	// Trace selects the traced run: per-layer metrics instead of end-to-end.
	Trace bool
	// TmpDir holds every store and log the run creates; the caller removes it.
	TmpDir string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// StoreOptions is the flush policy of every store the benchmark opens: what
// `bgpcollect -store` ships (no fsync, 256-record WAL group commit, auto-seal
// at 65536 records), plus the block-cache budget the workload calls for.
func StoreOptions(blockCache int64) store.Options {
	return store.Options{Sync: false, AutoSealRecords: 1 << 16, BlockCacheBytes: blockCache}
}

// FlushPolicy states StoreOptions for the run record.
const FlushPolicy = "Sync=false FlushEvery=256(default) AutoSealRecords=65536 Window=24h BlockRecords=512"

const (
	batchRecords = 256      // AppendBatch size, and the live sender's group
	chunkRecords = 4096     // records per span on record-at-a-time paths
	warmCache    = 32 << 20 // the block cache every CLI ships
)

// appendAll ingests recs in batchRecords batches, calling each (when set)
// with every batch's latency.
func appendAll(w *store.Writer, recs []collector.Record, each func(n int, d time.Duration)) error {
	for i := 0; i < len(recs); i += batchRecords {
		b := recs[i:min(i+batchRecords, len(recs))]
		t0 := time.Now()
		if err := w.AppendBatch(b); err != nil {
			return err
		}
		if each != nil {
			each(len(b), time.Since(t0))
		}
	}
	return nil
}

// buildStore writes recs into a fresh store at dir, sealed and compacted.
func buildStore(dir string, recs []collector.Record, compact bool) error {
	s, err := store.Open(dir, StoreOptions(0))
	if err != nil {
		return err
	}
	err = appendAll(s.Writer(), recs, nil)
	if err == nil {
		err = s.Writer().Seal()
	}
	if err == nil && compact {
		_, err = s.Compact()
	}
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

// drain reads r to the end, counting, and hashing when h is set.
func drain(r collector.RecordReader, h *Hasher) (Answer, error) {
	var a Answer
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return a, nil
		}
		if err != nil {
			return a, err
		}
		if h == nil {
			a.Count++
			continue
		}
		x, err := h.Record(rec)
		if err != nil {
			return a, err
		}
		a.Add(x)
	}
}

// run collects what one (workload, trace mode) invocation found.
type run struct {
	attempted, failed int64
	errs              []string
	metrics           map[string]float64
	counts            map[string]int // samples behind a metric
}

func newRun() *run {
	return &run{metrics: make(map[string]float64), counts: make(map[string]int)}
}

// op counts n attempted operations.
func (r *run) op(n int64) { r.attempted += n }

// fail counts one failed operation or reference mismatch, keeping the first
// few descriptions.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// check is one reference comparison: attempted, and failed unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *run) set(name string, v float64, samples int) {
	r.metrics[name] = v
	r.counts[name] = samples
}

// sampleSet is the local histograms and accumulators of a run, by name.
type sampleSet struct {
	lat  map[string]*Samples
	sums map[string]float64
}

func newSampleSet() *sampleSet {
	return &sampleSet{lat: make(map[string]*Samples), sums: make(map[string]float64)}
}

func (s *sampleSet) add(name string, v float64) {
	p := s.lat[name]
	if p == nil {
		p = new(Samples)
		s.lat[name] = p
	}
	p.Add(v)
}

func (s *sampleSet) get(name string) Samples {
	if p := s.lat[name]; p != nil {
		return *p
	}
	return nil
}

func (s *sampleSet) sum(name string, v float64) { s.sums[name] += v }

// merge folds in what another goroutine collected on its own.
func (s *sampleSet) merge(o *sampleSet) {
	for name, l := range o.lat {
		for _, v := range *l {
			s.add(name, v)
		}
	}
	for name, v := range o.sums {
		s.sum(name, v)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// allocBytes reads the cumulative heap allocation counter without stopping
// the world.
func allocBytes() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64())
}

// The irtl_* series the per-layer ledger reads. Get-or-create returns the
// live series the program publishes into, so a delta around a pass is that
// pass's share.
var (
	obsCounters = []string{
		"irtl_intern_hits_total", "irtl_intern_misses_total",
		"irtl_session_messages_total", "irtl_session_queue_drops_total",
		"irtl_store_dict_bytes_saved_total", "irtl_store_sealed_records_total",
		"irtl_serve_coalesced_total",
	}
	obsHistograms = []string{
		"irtl_session_decode_seconds", "irtl_store_wal_append_seconds",
		"irtl_store_seal_sort_seconds", "irtl_store_seal_write_seconds",
		"irtl_store_seal_publish_seconds", "irtl_store_seal_stall_seconds",
	}
)

func obsHistogram(name string, labels ...obs.Label) *obs.Histogram {
	return obs.Default().Histogram(name, "", nil, labels...)
}

// readObs snapshots every tracked series.
func readObs() map[string]float64 {
	out := make(map[string]float64)
	for _, name := range obsCounters {
		out[name] = obs.Default().Value(name)
	}
	for _, name := range obsHistograms {
		h := obsHistogram(name)
		out[name+".sum"] = h.Sum()
		out[name+".count"] = float64(h.Count())
	}
	// Server-side latency of the anonymous tenant, the only one the
	// benchmark's clients use; sheds over every reason.
	out["irtl_serve_request_seconds.sum"] = obsHistogram("irtl_serve_request_seconds", obs.L("tenant", "other")).Sum()
	out["irtl_serve_shed_total"] = obs.Default().Sum("irtl_serve_shed_total")
	return out
}

// foldObs adds the growth of every tracked series since before into s.
func foldObs(s *sampleSet, before map[string]float64) {
	for k, v := range readObs() {
		s.sum(k, v-before[k])
	}
}

// benchQuery is one generated query with its reference answer.
type benchQuery struct {
	Shape string // full, type, range, origin, prefix, peer
	Spec  serve.QuerySpec
	Q     store.Query
	Want  Answer
}

func (q benchQuery) selective() bool { return q.Shape != "full" && q.Shape != "type" }

// listCounts is how many queries of each shape one list holds on the
// 214-day campaign: 360 selective queries, so a pass alone gives the 95th
// percentile its ten samples beyond.
type listCounts struct{ full, typ, rng, origin, prefix, peer int }

var (
	coldCounts = listCounts{full: 3, typ: 3, rng: 200, origin: 100, prefix: 20, peer: 40}
	hotCounts  = listCounts{full: 4, typ: 0, rng: 200, origin: 100, prefix: 20, peer: 40}
)

// scaled cuts a list drawn for the 214-day campaign to c's length: a query
// costs what its days hold, so a list costs days squared, and a short
// campaign with the full list would spend its whole budget on one pass.
func (n listCounts) scaled(c *Campaign) listCounts {
	f := func(n int) int { return c.scaled(n, min(n, 1)) }
	return listCounts{f(n.full), f(n.typ), f(n.rng), f(n.origin), f(n.prefix), f(n.peer)}
}

func rfc(t time.Time) string { return t.UTC().Format(time.RFC3339) }

// systematic picks n of size positions, evenly spaced, the first a seeded
// jitter around the middle of its stride: a sample that covers the whole
// population in its given order whatever the seed. The jitter is a tenth of
// the stride and not all of it because the populations are sorted by volume
// and heavy-tailed: anywhere in the busiest tenth of the prefixes is a
// quiet prefix or the busiest of all, and a free start let the seed move a
// cold list's cost by a fifth (29 op/s at seed 3, 34 at seed 5, on repeats).
// Neighbours in the order cost alike, so two seeds now ask about different
// members at nearly the same ranks.
func systematic(rng *rand.Rand, n, size int) []int {
	stride := float64(size) / float64(n)
	at := (0.45 + 0.1*rng.Float64()) * stride
	out := make([]int, n)
	for i := range out {
		out[i] = int(at+float64(i)*stride) % size
	}
	return out
}

// byVolume returns the keys of counts, busiest last.
func byVolume[K cmp.Ordered](counts map[K]int) []K {
	keys := make([]K, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b K) int {
		return cmp.Or(cmp.Compare(counts[a], counts[b]), cmp.Compare(a, b))
	})
	return keys
}

// genList draws a query list over simulated days [lo, hi) of c, answers every
// distinct query once from the oracle, and shuffles. whole leaves the
// window-wide shapes without a time predicate, so a full scan is a full scan.
//
// What a query costs depends on what it names: a quiet origin or a busy one,
// a weekend or the day of the flood. Drawing names at random would let the
// seed decide the list's cost, so each shape samples its population
// systematically instead — origins, prefixes and peers in order of volume,
// ranges in order of start day.
func genList(rng *rand.Rand, c *Campaign, o *Oracle, lo, hi int, whole bool, n listCounts) ([]benchQuery, error) {
	recs := c.Recs[c.DayOff[lo]:c.DayOff[hi]]
	origins, prefixes, peers := make(map[bgp.ASN]int), make(map[string]int), make(map[bgp.ASN]int)
	for _, rec := range recs {
		prefixes[rec.Prefix.String()]++
		peers[rec.PeerAS]++
		if origin, ok := rec.Attrs.Path.Origin(); ok && rec.Type == collector.Announce {
			origins[origin]++
		}
	}
	if len(origins) == 0 {
		return nil, fmt.Errorf("benchkit: days [%d,%d) hold no announcements", lo, hi)
	}
	originKeys, prefixKeys, peerKeys := byVolume(origins), byVolume(prefixes), byVolume(peers)
	window := serve.QuerySpec{}
	if !whole {
		window.From, window.To = rfc(c.DayStart(lo)), rfc(c.DayStart(hi))
	}
	span := min(c.scaled(7, 1), hi-lo)
	starts := hi - lo - span + 1 // possible first days of a span-long range
	between := func(d int) (from, to string) { return rfc(c.DayStart(lo + d)), rfc(c.DayStart(lo + d + span)) }

	var list []benchQuery
	add := func(shape string, spec serve.QuerySpec) { list = append(list, benchQuery{Shape: shape, Spec: spec}) }
	for i := 0; i < n.full; i++ {
		add("full", window)
	}
	for i := 0; i < n.typ; i++ {
		spec := window
		spec.Type = "W"
		add("type", spec)
	}
	for _, d := range systematic(rng, n.rng, starts) {
		spec := serve.QuerySpec{}
		spec.From, spec.To = between(d)
		add("range", spec)
	}
	for _, i := range systematic(rng, n.origin, len(origins)) {
		spec := window
		spec.Origin = strconv.Itoa(int(originKeys[i]))
		add("origin", spec)
	}
	for _, i := range systematic(rng, n.prefix, len(prefixes)) {
		spec := window
		spec.Prefix = prefixKeys[i]
		add("prefix", spec)
	}
	days := systematic(rng, n.peer, starts)
	rng.Shuffle(len(days), func(i, j int) { days[i], days[j] = days[j], days[i] })
	for k, i := range systematic(rng, n.peer, len(peers)) {
		spec := serve.QuerySpec{Peer: strconv.Itoa(int(peerKeys[i]))}
		spec.From, spec.To = between(days[k])
		add("peer", spec)
	}
	answers := make(map[string]Answer)
	for i := range list {
		q, err := list[i].Spec.Parse()
		if err != nil {
			return nil, err
		}
		list[i].Q = q
		key := q.Key()
		if _, ok := answers[key]; !ok {
			answers[key] = o.Answer(q)
		}
		list[i].Want = answers[key]
	}
	rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list, nil
}

// needs says which parts of the set-up a workload uses.
type needs struct {
	oracle bool // per-record hashes and the brute-force answerer
	store  bool // the shared sealed+compacted read-only store
	cold   bool // query list over all days
	hot    bool // query list over the hot window
	mixed  bool // preload split and query list over the preloaded days
}

func (n needs) union(m needs) needs {
	return needs{n.oracle || m.oracle, n.store || m.store, n.cold || m.cold, n.hot || m.hot, n.mixed || m.mixed}
}

// env is what set-up produced: the campaign, the shared store, the
// reference answers.
type env struct {
	opts     Options
	camp     *Campaign
	oracle   *Oracle
	storeDir string
	cold     []benchQuery
	hot      []benchQuery
	// The hot window is simulated days [hotLo, hotHi): 28 of 214, in the
	// middle of the campaign.
	hotLo, hotHi int
	// mixed preloads simulated days [0, preDays) and appends the rest.
	preDays   int
	preOracle *Oracle
	mixed     []benchQuery

	genSeconds, setupSeconds float64
}

// setUp generates the campaign and builds whatever n asks for, under
// opts.TmpDir, once: setup_s is the wall time of this call.
func setUp(opts Options, n needs) (*env, error) {
	t0 := time.Now()
	c, err := Generate(CampaignConfig(opts.Days, opts.Small))
	if err != nil {
		return nil, err
	}
	e := &env{opts: opts, camp: c, genSeconds: time.Since(t0).Seconds()}
	if len(c.Recs) == 0 {
		return nil, fmt.Errorf("benchkit: empty campaign")
	}
	hot := c.scaled(28, 2)
	e.hotLo = (c.Days() - hot) / 2
	e.hotHi = e.hotLo + hot
	e.preDays = min(c.scaled(60, 1), c.Days()-1)

	if n.oracle || n.cold || n.hot {
		if e.oracle, err = NewOracle(c.Recs, c.Cfg.Start, c.Days()); err != nil {
			return nil, err
		}
	}
	if n.store {
		e.storeDir = filepath.Join(opts.TmpDir, "shared")
		if err := buildStore(e.storeDir, c.Recs, true); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	if n.cold {
		// Cut twice: a cold query reads all days, so the once-cut list still
		// takes 8 s a pass at the driver's length, and a run would hold two
		// passes or three depending on which side of a half pass its budget
		// falls. Cut again it takes 4 s and a run holds five, the shares kept.
		if e.cold, err = genList(rng, c, e.oracle, 0, c.Days(), true, coldCounts.scaled(c).scaled(c)); err != nil {
			return nil, err
		}
	}
	if n.hot {
		if e.hot, err = genList(rng, c, e.oracle, e.hotLo, e.hotHi, false, hotCounts.scaled(c)); err != nil {
			return nil, err
		}
	}
	if n.mixed {
		pre := c.Recs[:c.DayOff[e.preDays]]
		if e.preOracle, err = NewOracle(pre, c.Cfg.Start, e.preDays); err != nil {
			return nil, err
		}
		if e.mixed, err = genList(rng, c, e.preOracle, 0, e.preDays, false, hotCounts.scaled(c)); err != nil {
			return nil, err
		}
	}
	e.setupSeconds = time.Since(t0).Seconds()
	return e, nil
}
