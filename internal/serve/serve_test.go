package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/faults"
	"instability/internal/netaddr"
	"instability/internal/store"
)

// testRecord builds one synthetic update for the e2e stores.
func testRecord(t time.Time, i int) collector.Record {
	peers := []bgp.ASN{690, 701, 1239}
	peer := peers[i%len(peers)]
	pfx, err := netaddr.ParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/250, i%250))
	if err != nil {
		panic(err)
	}
	rec := collector.Record{Time: t, PeerAS: peer, Prefix: pfx}
	if i%7 == 3 {
		rec.Type = collector.Withdraw
		return rec
	}
	rec.Type = collector.Announce
	rec.Attrs = bgp.Attrs{
		Origin:  bgp.OriginIGP,
		Path:    bgp.PathFromASNs(peer, bgp.ASN(3561+i%5)),
		NextHop: netaddr.Addr(0x0a000001),
	}
	return rec
}

// newTestStore builds a store with both sealed segments and unsealed memtable
// records, so queries exercise the merged read path the server serves from.
func newTestStore(tb testing.TB, n int, opts store.Options) *store.Store {
	tb.Helper()
	if opts.Window == 0 {
		opts.Window = time.Hour
	}
	s, err := store.Open(tb.TempDir(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	base := time.Date(1996, 5, 1, 0, 0, 0, 0, time.UTC)
	w := s.Writer()
	for i := 0; i < n; i++ {
		if err := w.Append(testRecord(base.Add(time.Duration(i)*time.Minute), i)); err != nil {
			tb.Fatal(err)
		}
		if i == 2*n/3 { // seal two thirds; the rest stays in the memtable
			if err := w.Seal(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return s
}

// startServer runs a server on an ephemeral port and tears it down with the
// test.
func startServer(tb testing.TB, opts Options) *Server {
	tb.Helper()
	srv, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	waitFor(tb, func() bool { return srv.Addr() != nil })
	return srv
}

// wireBytes encodes records in the store codec — the strongest possible
// equality: two result sets are the same iff their bytes are.
func wireBytes(tb testing.TB, recs []collector.Record) []byte {
	tb.Helper()
	var b []byte
	var err error
	for _, rec := range recs {
		if b, err = store.AppendRecordWire(b, rec); err != nil {
			tb.Fatal(err)
		}
	}
	return b
}

// localQuery runs the embedded query the server's answers must match.
func localQuery(tb testing.TB, s *store.Store, spec QuerySpec) []collector.Record {
	tb.Helper()
	q, err := spec.Parse()
	if err != nil {
		tb.Fatal(err)
	}
	r, err := s.Query(q)
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	var recs []collector.Record
	for {
		rec, err := r.Next()
		if err != nil {
			return recs
		}
		recs = append(recs, rec)
	}
}

func drainRemote(tb testing.TB, rr *RemoteReader) []collector.Record {
	tb.Helper()
	defer rr.Close()
	var recs []collector.Record
	for {
		rec, err := rr.Next()
		if errors.Is(err, io.EOF) {
			return recs
		}
		if err != nil {
			tb.Fatalf("remote stream: %v", err)
		}
		recs = append(recs, rec)
	}
}

// TestServeEndToEnd is the acceptance test: N tenants hammer the server
// concurrently over both protocols and every result is bit-identical to the
// embedded store query; aggregates hit the cache on repeat and are
// invalidated when the segment set changes.
func TestServeEndToEnd(t *testing.T) {
	const nrecs = 900
	st := newTestStore(t, nrecs, store.Options{})
	srv := startServer(t, Options{
		Store:      st,
		CacheBytes: 1 << 20,
		Quotas:     map[string]Quota{"dash": {Rate: 1000, Burst: 1000}},
	})
	addr := srv.Addr().String()

	specs := []QuerySpec{
		{},
		{Peer: "690"},
		{From: "1996-05-01 02:00:00", To: "1996-05-01 08:00:00"},
		{Type: "W"},
		{Origin: "3562", Type: "A"},
	}
	want := make([][]byte, len(specs))
	wantN := make([]int, len(specs))
	for i, spec := range specs {
		recs := localQuery(t, st, spec)
		want[i] = wireBytes(t, recs)
		wantN[i] = len(recs)
	}
	if wantN[0] != nrecs || wantN[1] == 0 || wantN[2] == 0 || wantN[3] == 0 || wantN[4] == 0 {
		t.Fatalf("degenerate fixtures: local match counts %v", wantN)
	}
	gen := st.Generation()

	// Four tenants, each querying every spec over both protocols at once.
	var wg sync.WaitGroup
	for _, tenant := range []string{"dash", "dash", "anon", ""} {
		for i, spec := range specs {
			wg.Add(1)
			go func(tenant string, i int, spec QuerySpec) {
				defer wg.Done()
				c := &Client{Addr: addr, Token: tenant}

				rr, err := c.Query(spec)
				if err != nil {
					t.Errorf("binary query %d: %v", i, err)
					return
				}
				recs := drainRemote(t, rr)
				if got := wireBytes(t, recs); !bytes.Equal(got, want[i]) {
					t.Errorf("binary query %d: %d records, not bit-identical to embedded query (%d records)",
						i, len(recs), wantN[i])
				}
				if rr.Generation() != gen {
					t.Errorf("binary query %d: generation %d, want %d", i, rr.Generation(), gen)
				}
				if rr.Stats().RecordsMatched != wantN[i] {
					t.Errorf("binary query %d: stats matched %d, want %d", i, rr.Stats().RecordsMatched, wantN[i])
				}

				hrecs, err := c.QueryHTTP(spec)
				if err != nil {
					t.Errorf("http query %d: %v", i, err)
					return
				}
				if got := wireBytes(t, hrecs); !bytes.Equal(got, want[i]) {
					t.Errorf("http query %d: %d records, not bit-identical to embedded query (%d records)",
						i, len(hrecs), wantN[i])
				}
			}(tenant, i, spec)
		}
	}
	wg.Wait()

	// Limit applies to streams.
	c := &Client{Addr: addr}
	rr, err := c.Query(QuerySpec{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if recs := drainRemote(t, rr); len(recs) != 10 {
		t.Fatalf("limit 10 returned %d records", len(recs))
	}

	// Aggregates: the second identical query is a cache hit, and concurrent
	// identical queries still agree with the first answer.
	agg1, err := c.Aggregate(KindClasses, QuerySpec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if agg1.Records != nrecs || agg1.Generation != gen {
		t.Fatalf("aggregate: records %d gen %d, want %d/%d", agg1.Records, agg1.Generation, nrecs, gen)
	}
	hits0, _, _, _ := srv.CacheCounts()
	agg2, err := c.Aggregate(KindClasses, QuerySpec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hits1, _, _, cbytes := srv.CacheCounts()
	if hits1 <= hits0 {
		t.Fatalf("repeat aggregate did not hit the cache (hits %d -> %d)", hits0, hits1)
	}
	if cbytes <= 0 {
		t.Fatal("cache holds no bytes after a cached aggregate")
	}
	if agg2.Records != agg1.Records || len(agg2.Classes) != len(agg1.Classes) {
		t.Fatalf("cached aggregate diverged: %+v vs %+v", agg2, agg1)
	}
	for _, kind := range []string{KindDaily, KindTopOrigins, KindPeerMatrix} {
		if _, err := c.Aggregate(kind, QuerySpec{}, 5); err != nil {
			t.Fatalf("aggregate %s: %v", kind, err)
		}
	}
	if _, err := c.Aggregate("nope", QuerySpec{}, 0); err == nil {
		t.Fatal("unknown aggregate kind accepted")
	}

	// Invalidation: sealing a new record advances the generation; the next
	// aggregate recomputes against the new segment set — never a stale answer.
	w := st.Writer()
	if err := w.Append(testRecord(time.Date(1996, 5, 2, 0, 0, 0, 0, time.UTC), 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if st.Generation() == gen {
		t.Fatal("seal did not advance the generation")
	}
	agg3, err := c.Aggregate(KindClasses, QuerySpec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if agg3.Records != nrecs+1 {
		t.Fatalf("post-seal aggregate saw %d records, want %d (stale cache?)", agg3.Records, nrecs+1)
	}
	if agg3.Generation != st.Generation() {
		t.Fatalf("post-seal aggregate generation %d, want %d", agg3.Generation, st.Generation())
	}

	// Statz reflects the serving plane.
	stz, err := c.Statz()
	if err != nil {
		t.Fatal(err)
	}
	if stz.Generation != st.Generation() || stz.Store.Records == 0 {
		t.Fatalf("statz = %+v", stz)
	}
}

// TestServeSheds proves admission failures surface as clean, typed errors on
// both protocols: quota exhaustion and a saturated worker pool.
func TestServeSheds(t *testing.T) {
	st := newTestStore(t, 60, store.Options{})
	srv := startServer(t, Options{
		Store:       st,
		MaxSessions: 1,
		MaxQueue:    0, // no waiting: a busy pool sheds instantly
		QueueWait:   50 * time.Millisecond,
		Quotas:      map[string]Quota{"limited": {Rate: 0.0001, Burst: 2}},
	})
	addr := srv.Addr().String()

	// Quota shed: the burst is 2, the third request is refused on both
	// protocols with ErrQuota.
	c := &Client{Addr: addr, Token: "limited"}
	for i := 0; i < 2; i++ {
		rr, err := c.Query(QuerySpec{Limit: 1})
		if err != nil {
			t.Fatalf("burst query %d: %v", i, err)
		}
		drainRemote(t, rr)
	}
	rr, err := c.Query(QuerySpec{Limit: 1})
	if err == nil {
		_, err = rr.Next()
		rr.Close()
	}
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("binary over-quota error = %v, want ErrQuota", err)
	}
	if _, err := c.QueryHTTP(QuerySpec{Limit: 1}); !errors.Is(err, ErrQuota) {
		t.Fatalf("http over-quota error = %v, want ErrQuota", err)
	}

	// Busy shed: occupy the single worker slot directly, then any request is
	// refused with ErrBusy.
	release, err := srv.adm.admit("", srv.closed)
	if err != nil {
		t.Fatal(err)
	}
	anon := &Client{Addr: addr}
	rr, err = anon.Query(QuerySpec{Limit: 1})
	if err == nil {
		_, err = rr.Next()
		rr.Close()
	}
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("binary busy error = %v, want ErrBusy", err)
	}
	if _, err := anon.QueryHTTP(QuerySpec{Limit: 1}); !errors.Is(err, ErrBusy) {
		t.Fatalf("http busy error = %v, want ErrBusy", err)
	}
	release()
	waitFor(t, func() bool { return srv.ActiveSessions() == 0 })

	// With the slot free the same request succeeds.
	rr, err = anon.Query(QuerySpec{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	drainRemote(t, rr)
}

// TestServeChaos runs the server over a fault-injected store under admission
// pressure: every request either succeeds (possibly degraded) or fails with a
// clean typed error, and shutdown leaks neither goroutines nor fds.
func TestServeChaos(t *testing.T) {
	g0 := runtime.NumGoroutine()
	fd0 := openFDs(t)

	plan, err := faults.ParseSpec("seed=7,flipreadp=0.005")
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t, 600, store.Options{FS: faults.NewInjector(faults.Disk{}, plan)})
	srv := startServer(t, Options{
		Store:        st,
		MaxSessions:  2,
		MaxQueue:     2,
		QueueWait:    100 * time.Millisecond,
		CacheBytes:   1 << 20,
		Quotas:       map[string]Quota{"limited": {Rate: 1, Burst: 5}},
		DrainTimeout: 2 * time.Second,
	})
	addr := srv.Addr().String()

	const requests = 24
	var wg sync.WaitGroup
	var ok, shed, failed int64
	var mu sync.Mutex
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			token := ""
			if i%2 == 0 {
				token = "limited"
			}
			c := &Client{Addr: addr, Token: token}
			var err error
			if i%3 == 0 {
				_, err = c.Aggregate(KindClasses, QuerySpec{}, 0)
			} else if i%3 == 1 {
				_, err = c.QueryHTTP(QuerySpec{Peer: "690"})
			} else {
				var rr *RemoteReader
				if rr, err = c.Query(QuerySpec{Peer: "701"}); err == nil {
					for err == nil {
						_, err = rr.Next()
					}
					if errors.Is(err, io.EOF) {
						err = nil
					}
					rr.Close()
				}
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrBusy) || errors.Is(err, ErrQuota):
				shed++
			default:
				failed++
				t.Errorf("request %d: unclean error: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("no request succeeded under chaos")
	}
	t.Logf("chaos: %d ok, %d shed, %d failed of %d", ok, shed, failed, requests)

	// Shutdown: drains cleanly and returns the process to its baseline.
	srv.Close()
	if tr, okT := http.DefaultTransport.(*http.Transport); okT {
		tr.CloseIdleConnections()
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= g0+2 })
	if fd0 > 0 {
		waitFor(t, func() bool { return openFDs(t) <= fd0+2 })
	}
}

// openFDs counts this process's open file descriptors (0 when /proc is
// unavailable, disabling the check).
func openFDs(tb testing.TB) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}

// TestServeGracefulClose: Close with nothing in flight returns promptly and
// further connections are refused.
func TestServeGracefulClose(t *testing.T) {
	st := newTestStore(t, 30, store.Options{})
	srv := startServer(t, Options{Store: st, DrainTimeout: time.Second})
	addr := srv.Addr().String()

	c := &Client{Addr: addr}
	rr, err := c.Query(QuerySpec{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	drainRemote(t, rr)

	t0 := time.Now()
	srv.Close()
	if d := time.Since(t0); d > 900*time.Millisecond {
		t.Fatalf("idle Close took %v", d)
	}
	if _, err := c.Query(QuerySpec{}); err == nil {
		t.Fatal("query succeeded after Close")
	}
}

// BenchmarkServeQuery measures one aggregate round trip cold (cache disabled:
// every request runs a store scan) versus cached (every request after the
// first is a memory hit).
func BenchmarkServeQuery(b *testing.B) {
	run := func(b *testing.B, cacheBytes int64) {
		st := newTestStore(b, 3000, store.Options{})
		srv := startServer(b, Options{Store: st, CacheBytes: cacheBytes})
		c := &Client{Addr: srv.Addr().String()}
		if _, err := c.Aggregate(KindClasses, QuerySpec{}, 0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Aggregate(KindClasses, QuerySpec{}, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, 0) })
	b.Run("cached", func(b *testing.B) { run(b, 1<<20) })
}

// expectHangup reads conn until the server ends it, failing the test if that
// takes more than within or the connection is still open after 5s.
func expectHangup(t *testing.T, conn net.Conn, within time.Duration) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	t0 := time.Now()
	got, err := io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v", time.Since(t0))
	}
	if d := time.Since(t0); d > within {
		t.Fatalf("connection ended after %v, want within %v", d, within)
	}
	return got
}

// TestRawIRTQClientFailsCleanly: the raw-TCP record protocol is gone, and a
// client that still speaks it — the preamble (magic, version 2) and one
// request frame whose payload is the 17-byte trace prefix (zero: untraced)
// and the JSON request — is not left hanging: the server gives up on it as on
// any request whose headers never end, and what comes back, if anything, is
// no record stream.
func TestRawIRTQClientFailsCleanly(t *testing.T) {
	st := newTestStore(t, 30, store.Options{})
	const headerTimeout = 200 * time.Millisecond
	srv := startServer(t, Options{Store: st, headerTimeout: headerTimeout})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	payload := append(make([]byte, 17), `{"query":{"limit":5}}`...)
	msg := append([]byte("IRTQ\x02"), 0, 0, 0, byte(len(payload)), 1)
	if _, err := conn.Write(append(msg, payload...)); err != nil {
		t.Fatal(err)
	}
	got := expectHangup(t, conn, headerTimeout+2*time.Second)
	// The old client's first step, reading a frame, fails.
	if _, _, err := readFrame(bytes.NewReader(got)); err == nil {
		t.Fatalf("raw IRTQ request answered with a frame: %q", got)
	}
}

// TestStalledHeadersDisconnect: a client that never finishes its request
// headers is disconnected by the header timeout instead of holding a
// connection forever.
func TestStalledHeadersDisconnect(t *testing.T) {
	st := newTestStore(t, 30, store.Options{})
	const headerTimeout = 200 * time.Millisecond
	srv := startServer(t, Options{Store: st, headerTimeout: headerTimeout})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /v1/records HTTP/1.1\r\nHost: serve\r\n")); err != nil {
		t.Fatal(err)
	}
	expectHangup(t, conn, headerTimeout+2*time.Second)
}

// smallSendBuffers gives the server's side of every connection a send buffer
// of a few kilobytes, so a client that stops reading stalls the server's
// writes after kilobytes rather than megabytes.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		err = c.(*net.TCPConn).SetWriteBuffer(4096)
	}
	return c, err
}

// startStallServer is startServer on smallSendBuffers over a store whose
// whole NDJSON answer (~400 KB) is many times what the buffers on the way
// hold.
func startStallServer(t *testing.T, opts Options) *Server {
	t.Helper()
	opts.Store = newTestStore(t, 3000, store.Options{})
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(smallSendBuffers{ln})
	t.Cleanup(func() { srv.Close() })
	waitFor(t, func() bool { return srv.Addr() != nil })
	return srv
}

// TestStalledReaderFreesSession: a client that asks for a large NDJSON
// stream and never reads it holds its session slot only until a write
// deadline passes, not forever.
func TestStalledReaderFreesSession(t *testing.T) {
	srv := startStallServer(t, Options{writeTimeout: 300 * time.Millisecond})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4096)
	if _, err := conn.Write([]byte("GET /v1/records HTTP/1.1\r\nHost: serve\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.ActiveSessions() == 1 })
	time.Sleep(100 * time.Millisecond)
	if srv.ActiveSessions() != 1 {
		t.Fatal("the stream finished without the client reading: the buffers held all of it")
	}
	waitFor(t, func() bool { return srv.ActiveSessions() == 0 })
}

// TestHangupMidStreamIsProfiled: a client that hangs up after the first
// NDJSON line fails the server's writes, and the request is profiled as the
// failure it was, not as a success.
func TestHangupMidStreamIsProfiled(t *testing.T) {
	srv := startStallServer(t, Options{SlowQuery: -1})
	addr := srv.Addr().String()
	resp, err := http.Get("http://" + addr + "/v1/records")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // unread to the end: the transport drops the connection
	waitFor(t, func() bool { return srv.ActiveSessions() == 0 })

	stz, err := (&Client{Addr: addr}).Statz()
	if err != nil {
		t.Fatal(err)
	}
	if len(stz.RecentQueries) == 0 {
		t.Fatal("no profile recorded")
	}
	if p := stz.RecentQueries[0]; p.Kind != "records" || p.Err == "" {
		t.Fatalf("abandoned stream profiled as %d records, err %q; want the write failure", p.Records, p.Err)
	}
}

// TestStreamGenerationIsSnapshots: with seals landing while queries run, the
// generation a stream reports is the one its reader's snapshot was taken
// under, not the store's at some other moment.
func TestStreamGenerationIsSnapshots(t *testing.T) {
	st := newTestStore(t, 300, store.Options{})
	srv := startServer(t, Options{Store: st})
	c := &Client{Addr: srv.Addr().String()}

	stop, sealed := make(chan struct{}), make(chan error, 1)
	go func() {
		w := st.Writer()
		base := time.Date(1996, 6, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; ; i++ {
			select {
			case <-stop:
				sealed <- nil
				return
			default:
			}
			if err := w.Append(testRecord(base.Add(time.Duration(i)*time.Minute), i)); err != nil {
				sealed <- err
				return
			}
			if err := w.Seal(); err != nil {
				sealed <- err
				return
			}
		}
	}()
	gen0 := st.Generation()
	for i := 0; i < 300; i++ {
		rr, err := c.Query(QuerySpec{Peer: "701"})
		if err != nil {
			t.Fatal(err)
		}
		drainRemote(t, rr)
		if ex := rr.Explain(); ex == nil || rr.Generation() != ex.Generation {
			t.Fatalf("query %d: stream generation %d, reader snapshot %+v", i, rr.Generation(), ex)
		}
	}
	close(stop)
	if err := <-sealed; err != nil {
		t.Fatal(err)
	}
	if st.Generation() == gen0 {
		t.Fatal("no seal landed while the queries ran")
	}
}

// readFailFS passes everything through to the FS beneath it until armed;
// from then on, left more segment reads succeed and every later one fails —
// a disk that goes bad partway through a scan.
type readFailFS struct {
	faults.FS
	left *atomic.Int64
}

type readFailFile struct {
	faults.File
	left *atomic.Int64
}

func (fs readFailFS) wrap(f faults.File, err error) (faults.File, error) {
	if err != nil {
		return nil, err
	}
	return readFailFile{f, fs.left}, nil
}

func (fs readFailFS) Open(name string) (faults.File, error) { return fs.wrap(fs.FS.Open(name)) }
func (fs readFailFS) OpenFile(name string, flag int, perm os.FileMode) (faults.File, error) {
	return fs.wrap(fs.FS.OpenFile(name, flag, perm))
}

func (f readFailFile) ReadAt(p []byte, off int64) (int, error) {
	if f.left.Add(-1) < 0 {
		return 0, faults.ErrInjected
	}
	return f.File.ReadAt(p, off)
}

// TestMidScanFailureIsReported: a scan that fails after records have already
// been streamed must reach the caller as an error on both protocols — over
// HTTP the 200 and the clean end of body used to make it a silent short
// answer — and the server's own account of the request (profile, statz) must
// call it a failure too.
func TestMidScanFailureIsReported(t *testing.T) {
	left := new(atomic.Int64)
	left.Store(math.MaxInt64)
	// One window, small blocks: the sealed two thirds are one segment of
	// many blocks, scanned in order ahead of the memtable's later records.
	st := newTestStore(t, 600, store.Options{
		FS:           readFailFS{faults.Disk{}, left},
		Window:       30 * 24 * time.Hour,
		BlockRecords: 16,
	})
	want := localQuery(t, st, QuerySpec{})
	srv := startServer(t, Options{Store: st})
	c := &Client{Addr: srv.Addr().String()}

	isPrefix := func(proto string, got []collector.Record, atLeast int) {
		t.Helper()
		if len(got) < atLeast || len(got) >= len(want) {
			t.Fatalf("%s: read %d of %d records before the failure, want a proper prefix", proto, len(got), len(want))
		}
		if !bytes.Equal(wireBytes(t, got), wireBytes(t, want[:len(got)])) {
			t.Fatalf("%s: the %d records read are not the first %d of the answer", proto, len(got), len(got))
		}
	}

	left.Store(3)
	got, err := c.QueryHTTP(QuerySpec{})
	if err == nil || !strings.Contains(err.Error(), faults.ErrInjected.Error()) {
		t.Fatalf("HTTP: %d records, err %v; want the injected read error", len(got), err)
	}
	isPrefix("HTTP", got, 1)

	left.Store(3)
	rr, err := c.Query(QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for {
		rec, nerr := rr.Next()
		if nerr != nil {
			err = nerr
			break
		}
		got = append(got, rec)
	}
	rr.Close()
	if err == io.EOF || !strings.Contains(err.Error(), faults.ErrInjected.Error()) {
		t.Fatalf("binary: %d records, err %v; want the injected read error", len(got), err)
	}
	isPrefix("binary", got, 0) // the batch the failure interrupted is never sent

	left.Store(math.MaxInt64)
	stz, err := c.Statz()
	if err != nil {
		t.Fatal(err)
	}
	if len(stz.RecentQueries) < 2 {
		t.Fatalf("statz retains %d queries, want both", len(stz.RecentQueries))
	}
	for _, p := range stz.RecentQueries[:2] { // newest first: binary, then HTTP
		if !strings.Contains(p.Err, faults.ErrInjected.Error()) || p.Records == 0 {
			t.Fatalf("%s records query profiled as %d records, err %q; want a failure after a partial stream", p.Proto, p.Records, p.Err)
		}
	}
}

// TestSlashZeroPrefixIsBadRequest: a /0 prefix parses to the value a query
// reads as "no prefix predicate", so both query endpoints must refuse it
// rather than answer for every prefix.
func TestSlashZeroPrefixIsBadRequest(t *testing.T) {
	st := newTestStore(t, 50, store.Options{})
	srv := startServer(t, Options{Store: st})
	for _, path := range []string{"/v1/records?prefix=0.0.0.0/0", "/v1/aggregate?kind=classes&prefix=0.0.0.0/0"} {
		resp, err := http.Get("http://" + srv.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		var we wireError
		err = json.NewDecoder(resp.Body).Decode(&we)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || we.Code != codeBadQuery || !strings.Contains(we.Msg, "-prefix") {
			t.Errorf("%s: status %d, body %+v (decode err %v); want 400 %s naming -prefix", path, resp.StatusCode, we, err, codeBadQuery)
		}
	}
}
