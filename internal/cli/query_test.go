package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/faults"
	"instability/internal/netaddr"
	"instability/internal/obs"
	"instability/internal/serve"
)

// listenAddr is the address a running server logged it listens on.
func listenAddr(t *testing.T, j *job) string {
	t.Helper()
	m := regexp.MustCompile(`listening on (\S+?):? `).FindStringSubmatch(j.stderr.String())
	if m == nil {
		t.Fatalf("no listen address in %q", j.stderr)
	}
	return m[1]
}

// run runs cmd to completion and returns what it printed.
func run(t *testing.T, cmd Command, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := cmd(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("%q: %v\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

// TestOneAnswer: a query selects the same records from a log, from a store
// ingested from it and from a server in front of that store, and every tool
// that takes the query's flags answers alike over all three.
func TestOneAnswer(t *testing.T) {
	dir := t.TempDir()
	logPath, db := filepath.Join(dir, "camp.irtl.gz"), filepath.Join(dir, "db")
	run(t, Sim, "-out", logPath, "-scale", "small", "-q")
	run(t, Store, "ingest", "-store", db, logPath)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := start(ctx, Serve, []string{"-store", db, "-addr", "127.0.0.1:0", "-trace-sample", "0"})
	if err := srv.ready(); err != nil {
		t.Fatal(err)
	}
	defer func() { cancel(); <-srv.done }()
	remote := listenAddr(t, srv)

	// The shapes are drawn around one announcement in the middle of the
	// campaign, so the combined one matches it at least.
	all := readAll(t, collector.OpenAny, logPath)
	var pivot collector.Record
	for _, rec := range all[len(all)/2:] {
		if rec.Type == collector.Announce {
			pivot = rec
			break
		}
	}
	origin, _ := pivot.Attrs.Path.Origin()
	otherPeer := all[0].PeerAS
	for _, rec := range all {
		if rec.PeerAS != pivot.PeerAS {
			otherPeer = rec.PeerAS
			break
		}
	}
	window := serve.QuerySpec{
		From: pivot.Time.UTC().Add(-36 * time.Hour).Format("2006-01-02 15:04"),
		To:   pivot.Time.UTC().Add(36 * time.Hour).Format(time.RFC3339),
	}
	peers := fmt.Sprintf("%d,%d", pivot.PeerAS, otherPeer)
	combined := window
	combined.Peer, combined.Origin, combined.Prefix, combined.Type = peers, strconv.Itoa(int(origin)), pivot.Prefix.String(), "A,UP"
	noType, noOrigin := combined, combined
	noType.Type, noOrigin.Origin = "", ""
	shapes := []struct {
		name string
		spec serve.QuerySpec
	}{
		{"window", window},
		{"peers", serve.QuerySpec{Peer: peers}},
		{"origin", serve.QuerySpec{Origin: combined.Origin}},
		{"prefix", serve.QuerySpec{Prefix: combined.Prefix}},
		{"types", serve.QuerySpec{Type: "W,DOWN"}},
		{"combined", combined},
		{"combined without -type", noType},
		{"combined without -origin", noOrigin},
	}
	lg := log.New(io.Discard, "", 0)
	for _, sh := range shapes {
		var got [3][]string
		for i, src := range []struct {
			in string
			sf *storeFlags
			rc *serve.Client
		}{{in: logPath}, {sf: &storeFlags{dir: db}}, {rc: &serve.Client{Addr: remote}}} {
			for _, rec := range readAll(t, func(string) (collector.RecordReader, string, error) {
				return openRecords(context.Background(), lg, src.in, src.sf, src.rc, sh.spec)
			}, "") {
				got[i] = append(got[i], fmt.Sprintf("%d %v %+v", rec.Time.UnixNano(), rec, rec))
			}
		}
		if len(got[0]) == 0 {
			t.Errorf("%s: %+v matches nothing in the log", sh.name, sh.spec)
		}
		for i, name := range []string{"store", "server"} {
			if strings.Join(got[i+1], "\n") != strings.Join(got[0], "\n") {
				t.Errorf("%s: the %s gave %d records, the log %d (or others)", sh.name, name, len(got[i+1]), len(got[0]))
			}
		}
		n := strconv.Itoa(len(got[0]))
		flags := specArgs(sh.spec)
		if c := strings.TrimSpace(run(t, Store, append([]string{"query", "-store", db, "-count"}, flags...)...)); c != n {
			t.Errorf("%s: bgpstore query -count %s, log %s", sh.name, c, n)
		}
		if sh.spec.Origin == "" {
			if c := strings.TrimSpace(run(t, Dump, append([]string{"-in", logPath, "-c"}, flags...)...)); c != n {
				t.Errorf("%s: bgpdump -c %s, log %s", sh.name, c, n)
			}
		}
		if sh.spec.Type != "" {
			continue
		}
		var outs []string
		for _, src := range [][]string{{"-in", logPath}, {"-store", db}, {"-remote", remote}} {
			args := append(append(src, "-id", "all"), flags...)
			out := run(t, Analyze, args...)
			if !strings.HasPrefix(out, "classified "+n+" records ") {
				t.Errorf("%s: bgpanalyze %v: %.80q, want %s records", sh.name, args, out, n)
			}
			_, figs, _ := strings.Cut(out, "\n\n")
			outs = append(outs, figs)
			if figs == "" || figs != outs[0] {
				t.Errorf("%s: bgpanalyze %v differs from -in %s", sh.name, args, logPath)
			}
		}
	}
}

// TestIngestSealsSameBytes: two ingests of one log seal the same segment
// files, names and bytes. bgpstore ingest appends in AppendAll's groups while
// background seals run beside it, so this holds only because an auto-seal
// cuts at a record count, not wherever a seal happens to land.
func TestIngestSealsSameBytes(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "camp.irtl.gz")
	run(t, Sim, "-out", logPath, "-scale", "small", "-q")
	var stores [2]map[string][]byte
	for i := range stores {
		db := filepath.Join(dir, fmt.Sprintf("db%d", i))
		run(t, Store, "ingest", "-store", db, "-autoseal", "1000", logPath)
		entries, err := os.ReadDir(db)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = make(map[string][]byte)
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".irts") {
				if stores[i][e.Name()], err = os.ReadFile(filepath.Join(db, e.Name())); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if len(stores[0]) < 10 {
		t.Fatalf("%d segments: too few auto-seal cuts to test", len(stores[0]))
	}
	if len(stores[1]) != len(stores[0]) {
		t.Fatalf("ingests sealed %d and %d segments", len(stores[0]), len(stores[1]))
	}
	for name, b := range stores[0] {
		if !bytes.Equal(stores[1][name], b) {
			t.Fatalf("segment %s differs between two ingests of one log", name)
		}
	}
}

// TestRecordStreamIsLog: a served IRTQ body is the log bgpstore query -out
// writes for the same query, byte for byte — an empty answer and a cut one
// included — and bgpanalyze reads the saved body as it reads the server.
func TestRecordStreamIsLog(t *testing.T) {
	dir := t.TempDir()
	logPath, db := filepath.Join(dir, "camp.irtl.gz"), filepath.Join(dir, "db")
	run(t, Sim, "-out", logPath, "-scale", "small", "-q")
	run(t, Store, "ingest", "-store", db, logPath)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := start(ctx, Serve, []string{"-store", db, "-addr", "127.0.0.1:0", "-trace-sample", "0"})
	if err := srv.ready(); err != nil {
		t.Fatal(err)
	}
	defer func() { cancel(); <-srv.done }()
	remote := listenAddr(t, srv)

	for _, sh := range []struct {
		name  string
		spec  serve.QuerySpec
		limit int
	}{
		{"all", serve.QuerySpec{}, 0},
		{"window", serve.QuerySpec{From: "1996-03-02", To: "1996-03-04"}, 0},
		{"empty", serve.QuerySpec{From: "1990-01-01", To: "1990-01-02"}, 0},
		{"limit", serve.QuerySpec{From: "1996-03-03"}, 1000},
	} {
		v := url.Values{}
		for a := specArgs(sh.spec); len(a) > 0; a = a[2:] {
			v.Set(strings.TrimPrefix(a[0], "-"), a[1])
		}
		if sh.limit > 0 {
			v.Set("limit", strconv.Itoa(sh.limit))
		}
		req, err := http.NewRequest("GET", "http://"+remote+"/v1/records?"+v.Encode(), nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", "application/x-irtq")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || resp.Trailer.Get("Irtl-Explain") == "" {
			t.Fatalf("%s: status %d, trailers %v, err %v", sh.name, resp.StatusCode, resp.Trailer, err)
		}
		lr, err := collector.NewReader(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: the IRTQ body is no log: %v", sh.name, err)
		}
		recs, err := collector.ReadAll(lr)
		if err != nil || (len(recs) == 0) != (sh.name == "empty") || sh.limit > 0 && len(recs) != sh.limit {
			t.Fatalf("%s: the IRTQ body holds %d records (%v)", sh.name, len(recs), err)
		}

		saved := filepath.Join(dir, sh.name+".irtl")
		args := append([]string{"query", "-store", db, "-out", saved, "-exchange", lr.Exchange(), "-n", strconv.Itoa(sh.limit)}, specArgs(sh.spec)...)
		run(t, Store, args...)
		want, err := os.ReadFile(saved)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: IRTQ body (%d bytes) differs from bgpstore query -out (%d bytes)", sh.name, len(body), len(want))
		}
		if sh.limit > 0 {
			continue // bgpanalyze takes no limit
		}
		var outs []string
		for _, src := range [][]string{{"-in", saved}, append([]string{"-remote", remote}, specArgs(sh.spec)...)} {
			out := run(t, Analyze, append(src, "-id", "table1")...)
			_, figs, _ := strings.Cut(out, "\n\n") // past the source and the process-wide intern line
			outs = append(outs, figs)
		}
		if outs[0] != outs[1] {
			t.Errorf("%s: bgpanalyze -in the saved body prints\n%s\nbgpanalyze -remote prints\n%s", sh.name, outs[0], outs[1])
		}
	}
}

// specArgs spells spec as the query flags.
func specArgs(spec serve.QuerySpec) []string {
	var args []string
	for _, f := range []struct{ name, v string }{
		{"-from", spec.From}, {"-to", spec.To}, {"-peer", spec.Peer},
		{"-origin", spec.Origin}, {"-prefix", spec.Prefix}, {"-type", spec.Type},
	} {
		if f.v != "" {
			args = append(args, f.name, f.v)
		}
	}
	return args
}

// readAll reads every record of what open opens at path.
func readAll(t *testing.T, open func(string) (collector.RecordReader, string, error), path string) []collector.Record {
	t.Helper()
	r, _, err := open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var out []collector.Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
}

// TestReplayDrainsAndCeases: bgpreplay at -speedup 0, over a connection
// whose writes are slowed, delivers every record it replays before it
// closes, and ends the session with a Cease NOTIFICATION.
func TestReplayDrainsAndCeases(t *testing.T) {
	const n = 600
	dir := t.TempDir()
	in, out := filepath.Join(dir, "distinct.irtl.gz"), filepath.Join(dir, "live.irtl.gz")
	writeDistinct(t, in, n)

	defer func(d func(string, string) (net.Conn, error)) { dialCollector = d }(dialCollector)
	dialCollector = func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return faults.NewConn(c, faults.Plan{Seed: 1, MaxOpDelay: 4 * time.Millisecond}, 0), nil
	}
	col := start(context.Background(), Collect, []string{"-listen", "127.0.0.1:0", "-out", out, "-maxconns", "1", "-report", "0"})
	if err := col.ready(); err != nil {
		t.Fatal(err)
	}
	run(t, Replay, "-in", in, "-connect", listenAddr(t, col), "-speedup", "0")
	select {
	case err := <-col.done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		col.cancel()
		t.Fatalf("collector still running a minute after the replay ended\n%s", col.stderr)
	}

	got := readAll(t, collector.OpenAny, out)
	announced := 0
	for _, rec := range got {
		if rec.Type == collector.Announce {
			announced++
		}
	}
	if announced != n {
		t.Errorf("collector logged %d of %d replayed announcements", announced, n)
	}
	if len(got) == 0 || got[len(got)-1].Type != collector.SessionDown {
		t.Errorf("the session did not end in a NOTIFICATION the collector heard")
	}
	if !strings.Contains(col.stderr.String(), "notification Cease") {
		t.Errorf("the session did not end on a Cease:\n%s", col.stderr)
	}
}

// TestCollectStoreChaos: bgpcollect's -chaos faults its own -store. A
// replayed stream into a collector whose store fails its first write
// surfaces the injected fault, and the IRTL log still gets every record.
func TestCollectStoreChaos(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	in, out, db := filepath.Join(dir, "distinct.irtl.gz"), filepath.Join(dir, "live.irtl.gz"), filepath.Join(dir, "db")
	writeDistinct(t, in, n)

	col := start(context.Background(), Collect, []string{"-listen", "127.0.0.1:0", "-out", out,
		"-store", db, "-chaos", "seed=3,failwrite=1", "-maxconns", "1", "-report", "0"})
	if err := col.ready(); err != nil {
		t.Fatal(err)
	}
	run(t, Replay, "-in", in, "-connect", listenAddr(t, col), "-speedup", "0")
	var err error
	select {
	case err = <-col.done:
	case <-time.After(time.Minute):
		col.cancel()
		t.Fatalf("collector still running a minute after the replay ended\n%s", col.stderr)
	}
	if !errors.Is(err, faults.ErrInjected) && !strings.Contains(col.stderr.String(), faults.ErrInjected.Error()) {
		t.Errorf("the injected store fault did not surface: err %v\n%s", err, col.stderr)
	}

	got := readAll(t, collector.OpenAny, out)
	announced := 0
	for _, rec := range got {
		if rec.Type == collector.Announce {
			announced++
		}
	}
	if announced != n {
		t.Errorf("collector logged %d of %d replayed announcements", announced, n)
	}
	if len(got) == 0 || got[len(got)-1].Type != collector.SessionDown {
		t.Errorf("the log does not end with the session going down")
	}
}

// writeDistinct writes a log of n announcements, one a second from
// 1996-03-01, with distinct prefixes, so no change supersedes another, and
// distinct paths, so each goes out in its own UPDATE.
func writeDistinct(t *testing.T, path string, n int) {
	t.Helper()
	w, err := collector.Create(path, "test")
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		if err := w.Write(collector.Record{
			Time: base.Add(time.Duration(i) * time.Second), Type: collector.Announce, PeerAS: 690,
			Prefix: netaddr.MustPrefix(netaddr.Addr(0x0a000000+uint32(i)<<8), 24),
			Attrs:  bgp.Attrs{Origin: bgp.OriginIGP, Path: bgp.PathFromASNs(690, bgp.ASN(1000+i)), NextHop: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTraceSample: at -trace-sample 1 every tool that declares the flag
// leaves a retained trace that holds its stage spans.
func TestTraceSample(t *testing.T) {
	t.Cleanup(obs.DefaultTracer().Disable)
	dir := t.TempDir()
	in, db := filepath.Join(dir, "distinct.irtl.gz"), filepath.Join(dir, "db")
	writeDistinct(t, in, 200)
	run(t, Store, "ingest", "-store", db, in)

	for _, tc := range []struct {
		tool string
		do   func(t *testing.T)
		want []string
	}{
		{"bgpanalyze", func(t *testing.T) {
			run(t, Analyze, "-in", in, "-trace-sample", "1")
		}, []string{"classify"}},
		{"bgpstore query", func(t *testing.T) {
			run(t, Store, "query", "-store", db, "-count", "-trace-sample", "1")
		}, []string{"store_scan"}},
		{"bgpreplay", func(t *testing.T) {
			col := start(context.Background(), Collect, []string{"-listen", "127.0.0.1:0",
				"-out", filepath.Join(t.TempDir(), "live.irtl.gz"), "-maxconns", "1", "-report", "0"})
			if err := col.ready(); err != nil {
				t.Fatal(err)
			}
			run(t, Replay, "-store", db, "-connect", listenAddr(t, col), "-speedup", "0", "-trace-sample", "1")
			if err := <-col.done; err != nil {
				t.Fatal(err)
			}
		}, []string{"replay", "store_scan"}},
		{"bgpserve", func(t *testing.T) {
			srv := start(context.Background(), Serve, []string{"-store", db, "-addr", "127.0.0.1:0", "-trace-sample", "1"})
			defer func() { srv.cancel(); <-srv.done }()
			if err := srv.ready(); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get("http://" + listenAddr(t, srv) + "/v1/records?limit=3")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}, []string{"serve_query", "store_scan"}},
	} {
		t.Run(tc.tool, func(t *testing.T) {
			before := map[*obs.Trace]bool{}
			for _, tr := range obs.DefaultTracer().Traces() {
				before[tr] = true
			}
			tc.do(t)
			deadline := time.Now().Add(5 * time.Second)
			for {
				for _, tr := range obs.DefaultTracer().Traces() {
					if before[tr] {
						continue
					}
					names := map[string]bool{}
					for _, sp := range tr.Spans() {
						names[sp.Name] = true
					}
					if !slices.ContainsFunc(tc.want, func(n string) bool { return !names[n] }) {
						return
					}
				}
				if time.Now().After(deadline) {
					t.Fatalf("no new retained trace holds %v", tc.want)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
