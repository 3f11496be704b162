package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"instability/internal/obs"
	"instability/internal/store"
)

// slowlogGolden holds TestSlowQueryProfileGolden's expected output.
// Regenerate (only when the profile is meant to change) with
//
//	SERVE_WRITE_GOLDEN=1 go test -run TestSlowQueryProfileGolden ./internal/serve
const slowlogGolden = "slowlog-golden.ndjson"

// normalizeProfile re-renders one profile as canonical JSON with the fields
// that differ run to run — time, trace_id, duration_ms and each stage's
// milliseconds — replaced by "present" once checked to be set, and positive
// where they are numbers. Stage names and everything else stay as they are.
func normalizeProfile(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("profile does not parse: %v\n%s", err, raw)
	}
	if ts, _ := m["time"].(string); ts == "" {
		t.Fatalf("profile has no time: %s", raw)
	} else if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
		t.Fatalf("profile time %q: %v", ts, err)
	}
	if id, _ := m["trace_id"].(string); len(id) != 16 {
		t.Fatalf("profile trace_id %q, want 16 hex digits", id)
	}
	if d, _ := m["duration_ms"].(float64); d <= 0 {
		t.Fatalf("profile duration_ms %v, want > 0", m["duration_ms"])
	}
	m["time"], m["trace_id"], m["duration_ms"] = "present", "present", "present"
	stages, _ := m["stages_ms"].(map[string]any)
	for k, v := range stages {
		if ms, _ := v.(float64); ms <= 0 {
			t.Fatalf("stage %q = %v ms, want > 0: %s", k, v, raw)
		}
		stages[k] = "present"
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestSlowQueryProfileGolden pins, field for field, the slow-query line of
// each kind of request — an IRTQ stream, an NDJSON stream cut by a limit, an
// aggregate's cache miss and then its hit, a bad request and a quota shed —
// and the same requests as /v1/statz lists them under recent_queries, newest
// first. Every request is traced and over the threshold, so each writes one
// line.
func TestSlowQueryProfileGolden(t *testing.T) {
	obs.EnableTracing(obs.TraceConfig{SampleRate: 1, SlowThreshold: time.Nanosecond, RingSize: 64})
	t.Cleanup(func() { obs.DefaultTracer().Disable() })
	var buf syncBuffer
	st := newTestStore(t, 300, store.Options{})
	srv := startServer(t, Options{
		Store:        st,
		CacheBytes:   1 << 20,
		Quotas:       map[string]Quota{"golden": {Rate: 1e-9, Burst: 5}},
		SlowQuery:    time.Nanosecond,
		SlowQueryLog: &buf,
	})
	c := &Client{Addr: srv.Addr().String(), Token: "golden"}

	n := 0
	step := func(what string, do func() error, wantErr string) {
		t.Helper()
		err := do()
		if wantErr == "" && err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)) {
			t.Fatalf("%s: err %v, want %q", what, err, wantErr)
		}
		// One line per request, in request order.
		n++
		waitFor(t, func() bool { return len(nonEmptyLines(buf.String())) == n })
	}
	step("IRTQ query", func() error {
		rr, err := c.Query(QuerySpec{Peer: "690"})
		if err == nil {
			drainRemote(t, rr)
		}
		return err
	}, "")
	step("NDJSON query", func() error {
		recs, err := c.QueryHTTP(QuerySpec{Type: "A", Limit: 7})
		if err == nil && len(recs) != 7 {
			err = fmt.Errorf("%d records, want 7", len(recs))
		}
		return err
	}, "")
	agg := func() error {
		_, err := c.Aggregate(KindClasses, QuerySpec{From: "1996-05-01T01:00:00Z"}, 0)
		return err
	}
	step("aggregate miss", agg, "")
	step("aggregate hit", agg, "")
	step("bad limit", func() error {
		resp, err := c.get(context.Background(), "/v1/records?limit=x", "")
		if err == nil {
			resp.Body.Close()
		}
		return err
	}, "bad limit")
	step("quota shed", func() error { _, err := c.Aggregate(KindDaily, QuerySpec{}, 0); return err }, "quota")

	var got bytes.Buffer
	for _, line := range nonEmptyLines(buf.String()) {
		fmt.Fprintf(&got, "{\"slow_query_log\":%s}\n", normalizeProfile(t, []byte(line)))
	}
	stz, err := c.Statz()
	if err != nil {
		t.Fatal(err)
	}
	if len(stz.RecentQueries) < n {
		t.Fatalf("statz lists %d recent queries, want >= %d", len(stz.RecentQueries), n)
	}
	for _, p := range stz.RecentQueries[:n] {
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "{\"recent_queries\":%s}\n", normalizeProfile(t, raw))
	}

	path := filepath.Join("testdata", slowlogGolden)
	if os.Getenv("SERVE_WRITE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (regenerate with SERVE_WRITE_GOLDEN=1): %v", err)
	}
	gl, wl := nonEmptyLines(got.String()), nonEmptyLines(string(want))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d differs from %s:\n got  %s\n want %s", i+1, path, g, w)
		}
	}
}
