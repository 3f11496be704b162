package benchkit

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"instability/internal/serve"
	"instability/internal/store"
)

// Request kinds of the serve workload, and their share of the list.
const (
	kIRTQ    = "irtq"     // Client.Query: binary record stream
	kHTTP    = "http"     // Client.QueryHTTP: NDJSON, at most httpLimit records
	kAggHit  = "agg_hit"  // /v1/aggregate on one of 32 repeating keys
	kAggMiss = "agg_miss" // /v1/aggregate on a range never asked before
	kStatz   = "statz"    // /v1/statz
)

var serveMix = []struct {
	kind  string
	share int // of 100
}{{kIRTQ, 55}, {kHTTP, 15}, {kAggHit, 20}, {kAggMiss, 5}, {kStatz, 5}}

const (
	httpLimit     = 5000
	serveRequests = 160
	serveClients  = 2
	resultCache   = 32 << 20
)

type serveReq struct {
	kind    string
	spec    serve.QuerySpec
	q       store.Query
	aggKind string
	want    Answer // record streams: the reference result
}

// serveRun is the remote path: an in-process server on loopback over the
// warm store, and two clients that each wait for every reply.
type serveRun struct {
	e        *env
	st       *store.Store
	srv      *serve.Server
	served   chan error
	addr     string
	reqs     []serveReq
	times    []int64 // timestamps of the hot window's records, sorted
	verified bool
	unique   int // never-repeating ranges handed out so far

	mu       sync.Mutex
	aggFirst map[string]*serve.Aggregate // the miss that filled each repeating key

	cache                   *store.BlockCacheStats
	hits0, misses0, evicts0 uint64
}

func openServe(e *env, _ *run) (workloadRun, error) {
	st, err := store.Open(e.storeDir, StoreOptions(warmCache))
	if err != nil {
		return nil, err
	}
	w := &serveRun{e: e, st: st, served: make(chan error, 1), aggFirst: make(map[string]*serve.Aggregate)}
	if err := w.start(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *serveRun) start() error {
	srv, err := serve.New(serve.Options{Store: w.st, CacheBytes: resultCache, SlowQuery: -1})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv, w.addr = srv, ln.Addr().String()
	go func() { w.served <- srv.Serve(ln) }()
	for _, rec := range w.e.camp.Recs[w.e.camp.DayOff[w.e.hotLo]:w.e.camp.DayOff[w.e.hotHi]] {
		w.times = append(w.times, rec.Time.UnixNano())
	}
	sort.Slice(w.times, func(i, j int) bool { return w.times[i] < w.times[j] })
	return w.buildRequests()
}

func (w *serveRun) close() error {
	var err error
	if w.srv != nil {
		// Idle keep-alive connections would hold the drain open.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		w.srv.Close()
		err = <-w.served
		w.srv = nil
	}
	if w.st != nil {
		if cerr := w.st.Close(); err == nil {
			err = cerr
		}
		w.st = nil
	}
	return err
}

// buildRequests draws the fixed request list from the hot query list.
func (w *serveRun) buildRequests() error {
	var ranges, origins []benchQuery
	for _, q := range w.e.hot {
		switch q.Shape {
		case "range":
			ranges = append(ranges, q)
		case "origin":
			origins = append(origins, q)
		}
	}
	if len(ranges) == 0 || len(origins) == 0 {
		return fmt.Errorf("benchkit: hot list has no range or origin queries")
	}
	n := serveRequests
	if w.e.opts.Small {
		n /= 4
	}
	// Exact shares in a seeded order, and queries taken in turn rather than
	// drawn: the seed decides which request comes when, never how much the
	// list costs.
	rng := rand.New(rand.NewSource(w.e.opts.Seed + 1))
	var kinds []string
	for _, m := range serveMix {
		count := max(1, n*m.share/100)
		if m.kind == kAggMiss {
			// One more than its 5 %: the never-repeating aggregates are the
			// slowest class, and with exactly a twentieth of the list the
			// 95th percentile would be the slowest request of all the other
			// classes, a maximum; with one more it is a miss.
			count++
		}
		for i := 0; i < count; i++ {
			kinds = append(kinds, m.kind)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	limited := make(map[string]Answer)
	var nStream, nRange, nKey int
	for _, kind := range kinds {
		req := serveReq{kind: kind}
		switch kind {
		case kIRTQ:
			// Two ranges to one origin, the hot list's own proportion: a
			// range streams a thousand times what an origin does, so the
			// split must not be left to the shuffle.
			q := ranges[nStream%len(ranges)]
			if nStream%3 == 2 {
				q = origins[nStream%len(origins)]
			}
			nStream++
			req.spec, req.q, req.want = q.Spec, q.Q, q.Want
		case kHTTP:
			q := ranges[nRange%len(ranges)]
			nRange++
			req.spec, req.q = q.Spec, q.Q
			req.spec.Limit = httpLimit
			key := q.Q.Key()
			if _, ok := limited[key]; !ok {
				a, err := w.embeddedLimited(q.Q)
				if err != nil {
					return err
				}
				limited[key] = a
			}
			req.want = limited[key]
		case kAggHit:
			k := nKey % 32
			nKey++
			q := ranges[(k/4)%len(ranges)]
			req.spec, req.q, req.aggKind = q.Spec, q.Q, serve.Kinds()[k%4]
		case kAggMiss:
			req.aggKind = serve.KindClasses
		}
		w.reqs = append(w.reqs, req)
	}
	return nil
}

// embeddedLimited is the reference for a limited stream: the first httpLimit
// records of the embedded query, which the remote result must equal.
func (w *serveRun) embeddedLimited(q store.Query) (Answer, error) {
	rd, err := w.st.Query(q)
	if err != nil {
		return Answer{}, err
	}
	defer rd.Close()
	var a Answer
	var h Hasher
	for a.Count < httpLimit {
		rec, err := rd.Next()
		if err != nil {
			break // io.EOF: fewer than the limit
		}
		x, err := h.Record(rec)
		if err != nil {
			return a, err
		}
		a.Add(x)
	}
	return a, nil
}

// uniqueRange returns an aggregate range inside the hot window that no
// request of this run has used: each starts one second after the last.
func (w *serveRun) uniqueRange() (serve.QuerySpec, int) {
	c := w.e.camp
	w.unique++
	from := c.DayStart(w.e.hotLo).Add(time.Duration(w.unique) * time.Second)
	to := from.AddDate(0, 0, c.scaled(7, 1))
	if end := c.DayStart(w.e.hotHi); to.After(end) {
		to = end
	}
	lo := sort.Search(len(w.times), func(i int) bool { return w.times[i] >= from.UnixNano() })
	hi := sort.Search(len(w.times), func(i int) bool { return w.times[i] >= to.UnixNano() })
	return serve.QuerySpec{From: rfc(from), To: rfc(to)}, hi - lo
}

// clientOut is what one client goroutine saw; merged after both return.
type clientOut struct {
	s       *sampleSet
	ops     int64
	records int64
	fails   []string
}

func (o *clientOut) failf(format string, args ...any) {
	o.fails = append(o.fails, fmt.Sprintf(format, args...))
}

// do issues one request and checks its reply. It returns the records the
// reply carried.
func (w *serveRun) do(c *serve.Client, req serveReq, h *Hasher, o *clientOut) int {
	switch req.kind {
	case kIRTQ:
		rd, err := c.Query(req.spec)
		if err != nil {
			o.failf("irtq {%s}: %v", req.spec, err)
			return 0
		}
		got, err := drain(rd, h)
		rd.Close()
		if err != nil {
			o.failf("irtq {%s}: %v", req.spec, err)
			return got.Count
		}
		if h == nil {
			got.Hash = req.want.Hash
		}
		if got != req.want {
			o.failf("irtq {%s}: got %+v, reference %+v", req.spec, got, req.want)
		}
		return got.Count
	case kHTTP:
		recs, err := c.QueryHTTP(req.spec)
		if err != nil {
			o.failf("http {%s}: %v", req.spec, err)
			return 0
		}
		got := Answer{Count: len(recs), Hash: req.want.Hash}
		if h != nil {
			got.Hash = 0
			for _, rec := range recs {
				x, err := h.Record(rec)
				if err != nil {
					o.failf("http {%s}: %v", req.spec, err)
					return len(recs)
				}
				got.Hash += x
			}
		}
		if got != req.want {
			o.failf("http {%s}: got %+v, embedded %+v", req.spec, got, req.want)
		}
		return len(recs)
	case kAggHit:
		agg, err := c.Aggregate(req.aggKind, req.spec, 0)
		if err != nil {
			o.failf("aggregate %s {%s}: %v", req.aggKind, req.spec, err)
			return 0
		}
		key := req.aggKind + " " + req.q.Key()
		w.mu.Lock()
		first := w.aggFirst[key]
		if first == nil {
			w.aggFirst[key] = agg
		}
		w.mu.Unlock()
		if first != nil && !reflect.DeepEqual(first, agg) {
			o.failf("aggregate %s {%s}: cached body differs from the computed one", req.aggKind, req.spec)
		}
	case kAggMiss:
		agg, err := c.Aggregate(req.aggKind, req.spec, 0)
		if err != nil {
			o.failf("aggregate %s {%s}: %v", req.aggKind, req.spec, err)
			return 0
		}
		if agg.Records != req.want.Count {
			o.failf("aggregate %s {%s}: %d records, range holds %d", req.aggKind, req.spec, agg.Records, req.want.Count)
		}
	case kStatz:
		if _, err := c.Statz(); err != nil {
			o.failf("statz: %v", err)
		}
	}
	return 0
}

func (w *serveRun) pass(tr *Tracer, root *ActiveSpan, s *sampleSet, r *run) (passOut, error) {
	verify := !w.verified
	w.verified = true
	if tr != nil && w.cache == nil {
		bc := w.st.Stats().BlockCache
		w.cache = &bc
		w.hits0, w.misses0, w.evicts0, _ = w.srv.CacheCounts()
	}
	reqs := append([]serveReq(nil), w.reqs...)
	for i := range reqs {
		if reqs[i].kind == kAggMiss {
			reqs[i].spec, reqs[i].want.Count = w.uniqueRange()
		}
	}
	outs := make([]clientOut, serveClients)
	var wg sync.WaitGroup
	var next atomic.Int64
	t0 := time.Now()
	for ci := range outs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			o := &outs[ci]
			o.s = newSampleSet()
			c := &serve.Client{Addr: w.addr}
			var h *Hasher
			if verify {
				h = &Hasher{}
			}
			// Each client takes the next request of the list when its last
			// reply is in, as callers sharing a queue do: dealing them out by
			// position would let the shuffle decide which client draws the
			// long streams, and the pass would last as long as the unluckier.
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				req := reqs[i]
				sp := tr.Start(root, "serve."+req.kind)
				t0 := time.Now()
				n := w.do(c, req, h, o)
				d := time.Since(t0)
				sp.End(int64(n))
				o.ops++
				o.records += int64(n)
				o.s.add("op_ms", ms(d))
				o.s.add("serve."+req.kind+"_ms", ms(d))
				if n > 0 {
					o.s.sum("serve."+req.kind+".records", float64(n))
					o.s.sum("serve."+req.kind+".ns", float64(d.Nanoseconds()))
				}
			}
		}(ci)
	}
	wg.Wait()
	out := passOut{wall: time.Since(t0).Seconds()}
	for _, o := range outs {
		out.ops += o.ops
		out.records += o.records
		r.op(o.ops)
		for _, f := range o.fails {
			r.fail("%s", f)
		}
		s.merge(o.s)
	}
	if tr != nil {
		// The same record streams once more embedded, one at a time: what the
		// serving plane adds on top of the store. Harness time.
		sp := tr.Start(root, "bench.embedded")
		for _, req := range reqs {
			if req.kind != kIRTQ {
				continue
			}
			_, t, _, err := execQuery(w.st, req.q, nil, nil, nil)
			if err != nil {
				return out, err
			}
			s.sum("serve.embedded.ns", float64(t.total().Nanoseconds()))
		}
		sp.End(0)
	}
	return out, nil
}

func (w *serveRun) layers(r *run, s *sampleSet, tot map[string]SpanTotals, outs []passOut) {
	p50 := func(metric, kind string, scale float64) {
		l := s.get("serve." + kind + "_ms")
		r.set(metric, l.Median()*scale, len(l))
	}
	p50("serve.irtq_ms_p50", kIRTQ, 1)
	p50("serve.http_records_ms_p50", kHTTP, 1)
	p50("serve.agg_hit_us_p50", kAggHit, 1e3)
	p50("serve.agg_miss_ms_p50", kAggMiss, 1)
	p50("serve.statz_us_p50", kStatz, 1e3)
	irtqNs, irtqRecs := s.sums["serve.irtq.ns"], s.sums["serve.irtq.records"]
	n := len(s.get("serve.irtq_ms"))
	r.set("serve.irtq_ns_per_record", share(irtqNs, irtqRecs), n)
	r.set("serve.http_ns_per_record", share(s.sums["serve.http.ns"], s.sums["serve.http.records"]), len(s.get("serve.http_ms")))
	r.set("serve.irtq_overhead_ns_per_record", share(irtqNs-s.sums["serve.embedded.ns"], irtqRecs), n)
	all := s.get("op_ms")
	r.set("serve.server_share", share(s.sums["irtl_serve_request_seconds.sum"]*1e3, all.Sum()), len(all))
	hits, misses, evicts, _ := w.srv.CacheCounts()
	h, m := float64(hits-w.hits0), float64(misses-w.misses0)
	r.set("serve.cache.hit_share", share(h, h+m), int(h+m))
	r.set("serve.cache.evictions", float64(evicts-w.evicts0), int(h+m))
	r.set("serve.coalesced", s.sums["irtl_serve_coalesced_total"], len(all))
	r.set("serve.shed", s.sums["irtl_serve_shed_total"], len(all))
	cacheLayers(r, *w.cache, w.st.Stats().BlockCache)
}
