package store

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/faults"
)

const explainGoldenName = "explain-golden.json"

// explainShapes runs the query shapes the EXPLAIN profile is read for — full,
// range, origin, prefix, peer — over the checked-in v1 segment plus a
// memtable tail, twice per shape, cache off and on, cold and warm, and
// returns every profile after EOF and Close. The two runs of a shape keep
// the keys the golden file was recorded under, workers=1 and workers=4; both
// are the same serial scan, and json.Unmarshal ignores the golden's workers
// fields. The segment's bytes are in the repository, so the byte counts do
// not depend on this toolchain's deflate.
func explainShapes(t *testing.T) map[string]Explain {
	t.Helper()
	recs := fixtureRecords()
	tail := recs[len(recs)-1].Time
	shapes := []struct {
		name string
		q    Query
	}{
		{"full", Query{}},
		{"range", Query{From: recs[70].Time, To: recs[200].Time}},
		{"origin", Query{OriginAS: []bgp.ASN{7002}}},
		{"prefix", Query{Prefix: recs[7].Prefix}},
		{"peer", Query{PeerAS: []bgp.ASN{101}}},
	}
	out := make(map[string]Explain)
	for _, cache := range []int64{0, 8 << 20} {
		opts := testOptions()
		opts.BlockCacheBytes = cache
		s := openV1Fixture(t, opts)
		w := s.Writer()
		for i := 0; i < 40; i++ {
			rec := mkRecord(tail.Add(time.Duration(i)*time.Minute), bgp.ASN(100+i%3), bgp.ASN(7000+i%5), recs[i].Prefix, i%4 != 0)
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		for _, pass := range []string{"cold", "warm"} {
			if cache == 0 && pass == "warm" {
				continue
			}
			for _, sh := range shapes {
				for _, run := range []string{"workers=1", "workers=4"} {
					r, err := s.Query(sh.q)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := r.ReadAll(); err != nil {
						t.Fatal(err)
					}
					r.Close()
					out[fmt.Sprintf("cache=%d/%s/%s/%s", cache, pass, sh.name, run)] = r.Explain()
				}
			}
		}
	}
	return out
}

// TestExplainGolden pins what -explain, statz and the slow-query log print:
// the profile after EOF must equal, field for field, the one recorded from
// the commit before the merge loop moved its accounting from every record to
// every block. Regenerate (only when the accounting is meant to change) with
//
//	STORE_WRITE_FIXTURE=1 go test ./internal/store -run TestExplainGolden
func TestExplainGolden(t *testing.T) {
	got := explainShapes(t)
	path := filepath.Join("testdata", explainGoldenName)
	if os.Getenv("STORE_WRITE_FIXTURE") != "" {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (regenerate with STORE_WRITE_FIXTURE=1): %v", err)
	}
	var want map[string]Explain
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d profiles, golden has %d", len(got), len(want))
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s:\n got  %+v\n want %+v", name, g, w)
		}
	}
}

// TestStatsMidScan reads Stats after every Next of a scan over overlapping
// segments and a memtable tail: every counter only grows, the reader never
// accounts a block it has not fetched (the cache counts every fetch of this
// store's only reader), never returns a row of a block it has not accounted,
// and at EOF has accounted exactly the fetches.
func TestStatsMidScan(t *testing.T) {
	opts := testOptions()
	opts.BlockCacheBytes = 8 << 20
	batches := genMergeBatches(rand.New(rand.NewSource(1)), "overlapping", 6, 200)
	s := buildMergeStore(t, opts, batches)
	bc0 := s.Stats().BlockCache
	r, err := s.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fetched := func() int {
		bc := s.Stats().BlockCache
		return int(bc.Hits + bc.Misses - bc0.Hits - bc0.Misses)
	}
	prev := reflect.ValueOf(r.Stats())
	for returned := 0; ; returned++ {
		_, err := r.Next()
		st := r.Stats()
		cur := reflect.ValueOf(st)
		for i := 0; i < cur.NumField(); i++ {
			if cur.Field(i).Int() < prev.Field(i).Int() {
				t.Fatalf("after %d records: %s fell from %d to %d", returned,
					cur.Type().Field(i).Name, prev.Field(i).Int(), cur.Field(i).Int())
			}
		}
		prev = cur
		if n := fetched(); st.BlocksScanned > n || (err == io.EOF && st.BlocksScanned != n) {
			t.Fatalf("after %d records: %d blocks accounted, %d fetched", returned, st.BlocksScanned, n)
		}
		if err == io.EOF {
			if st.RecordsMatched != returned || st.BlocksScanned != st.BlocksSelected {
				t.Fatalf("at EOF: %d returned, stats %+v", returned, st)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if sealed := returned + 1 - st.MemRecords; sealed > st.RecordsMaterialized {
			t.Fatalf("%d records returned from segments, %d materialized", sealed, st.RecordsMaterialized)
		}
	}
}

// TestQueryOpensFilesOnlyUnmapped counts the opens a query makes: none while
// every candidate segment is mapped (the stream reads through its mapping
// reference), one per candidate segment on the ReadAt path, all closed again.
func TestQueryOpensFilesOnlyUnmapped(t *testing.T) {
	for _, noMmap := range []bool{false, true} {
		opts := testOptions()
		opts.NoMmap = noMmap
		s, recs := buildReadpathStore(t, t.TempDir(), opts, 3, 200)
		defer s.Close()
		// Swapped in after Open, so the store still maps: an injected FS at
		// Open would turn mapping off.
		inj := faults.NewInjector(faults.Disk{}, faults.Plan{})
		s.mu.Lock()
		s.fs = inj
		s.mu.Unlock()
		want := 0
		if noMmap {
			want = 2 * s.Stats().Segments
		}
		got, _ := queryAll(t, s, Query{})
		assertSameRecords(t, got, recs)
		got, _ = queryAll(t, s, Query{})
		assertSameRecords(t, got, recs)
		if st := inj.Stats(); st.Opens != want || st.OpenFiles != 0 {
			t.Fatalf("nommap=%v: two full scans made %d opens (want %d), %d left open", noMmap, st.Opens, want, st.OpenFiles)
		}
	}
}

// gatedReadFS holds every block read until the gate closes, announcing the
// first one: a stand-in for a cold query's slow first-block fetch.
type gatedReadFS struct {
	faults.FS
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once
}

type gatedFile struct {
	faults.File
	fs *gatedReadFS
}

func (f *gatedReadFS) Open(name string) (faults.File, error) {
	file, err := f.FS.Open(name)
	return gatedFile{file, f}, err
}

func (f gatedFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.once.Do(func() { close(f.fs.entered) })
	<-f.fs.gate
	return f.File.ReadAt(p, off)
}

// TestQueryPrimesOffTheLock: while a query is stuck fetching its streams'
// first blocks, an append — which needs the store lock — goes through.
func TestQueryPrimesOffTheLock(t *testing.T) {
	opts := testOptions()
	opts.NoMmap = true
	s, recs := buildReadpathStore(t, t.TempDir(), opts, 2, 100)
	defer s.Close()
	fs := &gatedReadFS{FS: faults.Disk{}, gate: make(chan struct{}), entered: make(chan struct{})}
	s.mu.Lock()
	s.fs = fs
	s.mu.Unlock()

	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		r, err := s.Query(Query{})
		if err != nil {
			done <- result{0, err}
			return
		}
		defer r.Close()
		got, err := r.ReadAll()
		done <- result{len(got), err}
	}()
	<-fs.entered
	appended := make(chan error, 1)
	go func() { appended <- s.Writer().Append(recs[0]) }()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("append blocked behind a query's first-block read")
	}
	close(fs.gate)
	if res := <-done; res.err != nil || res.n < len(recs) {
		t.Fatalf("query returned %d of %d records, err %v", res.n, len(recs), res.err)
	}
}
