package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/faults"
	"instability/internal/netaddr"
)

// readSegmentFiles returns the raw bytes of every sealed segment in dir,
// keyed by file name.
func readSegmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = b
	}
	return files
}

// TestSealedBytesIdenticalAcrossWorkers pins the seal contract: two builds
// of the same records write byte-for-byte identical segment files, through
// both the seal and the compaction (merge rewrite) paths, at the seal's one
// encoding goroutine. Everything downstream —
// fingerprints, caches, replication by rsync — is allowed to assume the
// bytes depend on the records alone. A third build seals every window once:
// its blocks are the compacted builds' blocks, so compaction writes what a
// seal writes.
func TestSealedBytesIdenticalAcrossWorkers(t *testing.T) {
	recs := hourlyWorkload(3, 400)
	var dirs []string
	build := func(sealOnce bool) map[string][]byte {
		dir := t.TempDir()
		dirs = append(dirs, dir)
		s, err := Open(dir, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		w := s.Writer()
		// Two seals per window, then a compaction, so the merged segments
		// exercise the rewrite as well.
		half := len(recs) / 2
		if sealOnce {
			half = len(recs)
		}
		if err := w.AppendBatch(recs[:half]); err != nil {
			t.Fatal(err)
		}
		if err := w.Seal(); err != nil {
			t.Fatal(err)
		}
		if !sealOnce {
			if err := w.AppendBatch(recs[half:]); err != nil {
				t.Fatal(err)
			}
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return readSegmentFiles(t, dir)
	}
	first := build(false)
	second := build(false)
	build(true)
	compacted, sealed := windowBlocks(t, dirs[0]), windowBlocks(t, dirs[2])
	if len(compacted) != len(sealed) {
		t.Fatalf("%d windows compacted, %d sealed once", len(compacted), len(sealed))
	}
	for wd, blocks := range sealed {
		if !slices.EqualFunc(blocks, compacted[wd], bytes.Equal) {
			t.Fatalf("window %d: compacted blocks differ from the blocks one seal writes", wd)
		}
	}
	if len(first) == 0 {
		t.Fatal("no segments written")
	}
	if len(first) != len(second) {
		t.Fatalf("segment sets differ: %d vs %d", len(first), len(second))
	}
	for name, sb := range first {
		pb, ok := second[name]
		if !ok {
			t.Fatalf("segment %s missing from the second build", name)
		}
		if !bytes.Equal(sb, pb) {
			t.Fatalf("segment %s differs between two builds (%d vs %d bytes)",
				name, len(sb), len(pb))
		}
	}
}

// TestStoreBytesIndependentOfPacing pins the store contract: the same
// records under the same Options seal into the same segment files, names and
// bytes, whatever the GOMAXPROCS, the append call and the pacing. An
// auto-seal cut falls at a record count, never at whatever the memtable
// happens to hold when a background seal lands, so neither a fast appender
// nor a slow one moves a segment boundary.
func TestStoreBytesIndependentOfPacing(t *testing.T) {
	recs := hourlyWorkload(24, 2100) // 50,400 records in four 6 h windows
	opts := Options{Window: 6 * time.Hour, AutoSealRecords: 2000}
	type pacing struct {
		procs int
		batch int // records per AppendBatch; 0 appends one record at a time
		pause time.Duration
	}
	build := func(p pacing) (digest string, segments int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p.procs))
		dir := t.TempDir()
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		w := s.Writer()
		group := max(p.batch, 256) // the pause falls after each group
		for lo := 0; lo < len(recs); lo += group {
			part := recs[lo:min(lo+group, len(recs))]
			if p.batch > 0 {
				err = w.AppendBatch(part)
			} else {
				for i := 0; i < len(part) && err == nil; i++ {
					err = w.Append(part[i])
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(p.pause)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		files := readSegmentFiles(t, dir)
		names := make([]string, 0, len(files))
		for name := range files {
			names = append(names, name)
		}
		slices.Sort(names)
		h := sha256.New()
		for _, name := range names {
			fmt.Fprintf(h, "%s %d\n", name, len(files[name]))
			h.Write(files[name])
		}
		return hex.EncodeToString(h.Sum(nil)), len(files)
	}
	var want string
	var first pacing
	var wantSegments int
	for _, procs := range []int{1, 2, 8} {
		for _, batch := range []int{0, 256, 4096} {
			for _, pause := range []time.Duration{0, time.Millisecond} {
				p := pacing{procs, batch, pause}
				got, segments := build(p)
				if want == "" {
					want, first, wantSegments = got, p, segments
				} else if got != want {
					t.Fatalf("pacing %+v sealed different bytes than %+v (%d segments, want %d)",
						p, first, segments, wantSegments)
				}
			}
		}
	}
	if cuts := len(recs) / opts.AutoSealRecords; wantSegments < cuts {
		t.Fatalf("%d segments from %d auto-seal cuts", wantSegments, cuts)
	}
}

// windowBlocks returns the stored bytes of every block in dir's segments, by
// window; each window must be one segment.
func windowBlocks(t *testing.T, dir string) map[int64][][]byte {
	t.Helper()
	out := make(map[int64][][]byte)
	for name, data := range readSegmentFiles(t, dir) {
		g, err := openSegment(faults.Disk{}, filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if out[g.windowStart] != nil {
			t.Fatalf("window %d has more than one segment", g.windowStart)
		}
		for _, bm := range g.index.blocks {
			out[g.windowStart] = append(out[g.windowStart], data[bm.offset:bm.offset+int64(bm.clen)])
		}
	}
	return out
}

// TestBackgroundSealRaceHammer batters a store with concurrent batch
// appenders while background auto-seals detach, seal, and publish under
// them, a compactor merges what they publish, and eight readers scan the
// moving overlay. Run under -race this is the memory-safety check for the
// seal pipeline and for the store's one attribute table, which appenders
// intern into while readers resolve through it (lazily, per block, with the
// block cache off). Every reader's result is checked as a snapshot of the
// appends (history.check): in time order, holding every record acked before
// the query began, none twice and none whose append had not begun, whatever
// stage of the pipeline a record was caught in. The final content check
// pins the quiescent store to exactly what was appended.
func TestBackgroundSealRaceHammer(t *testing.T) {
	for _, cacheBytes := range []int64{1 << 20, 0} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			hammerSeal(t, cacheBytes)
		})
	}
}

func hammerSeal(t *testing.T, cacheBytes int64) {
	opts := testOptions()
	opts.AutoSealRecords = 256
	opts.BlockCacheBytes = cacheBytes
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := hourlyWorkload(2, 2000)
	w := s.Writer()

	// One logical clock stamps each append's invocation and return and each
	// query's start and snapshot, so every result is judged against the
	// appends that surely finished before it began and those that surely had
	// not begun when it snapshotted.
	var clock atomic.Uint64
	h := &history{
		begun: make([]atomic.Uint64, len(recs)),
		acked: make([]atomic.Uint64, len(recs)),
		at:    make(map[int64]int, len(recs)),
		recs:  recs,
	}
	for i, rec := range recs {
		h.at[rec.Time.UnixNano()] = i // the workload's timestamps are distinct
	}

	const appenders = 4
	var wg sync.WaitGroup
	done := make(chan struct{})
	errc := make(chan error, appenders+9)
	chunk := (len(recs) + appenders - 1) / appenders
	for a := 0; a < appenders; a++ {
		lo := a * chunk
		hi := min(lo+chunk, len(recs))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for lo < hi {
				n := min(100, hi-lo)
				inv := clock.Add(1)
				for i := lo; i < lo+n; i++ {
					h.begun[i].Store(inv)
				}
				if err := w.AppendBatch(recs[lo : lo+n]); err != nil {
					errc <- err
					return
				}
				ret := clock.Add(1)
				for i := lo; i < lo+n; i++ {
					h.acked[i].Store(ret)
				}
				lo += n
			}
		}(lo, hi)
	}
	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				start := clock.Add(1)
				rd, err := s.Query(Query{})
				if err != nil {
					errc <- err
					return
				}
				snap := clock.Add(1)
				got, err := rd.ReadAll()
				rd.Close()
				if err == nil {
					err = h.check(got, start, snap)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := s.Compact(); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	got, _ := queryAll(t, s, Query{})
	assertSameRecords(t, got, recs)
	if st := s.Stats(); st.MemRecords != 0 || st.SealingRecords != 0 {
		t.Fatalf("store not quiescent after Seal: %+v", st)
	}
}

// history is what the race hammer knows of its appends: per record, the
// clock when the append carrying it was invoked and when it returned (0 =
// not yet), and the record's index by its timestamp.
type history struct {
	begun, acked []atomic.Uint64
	at           map[int64]int
	recs         []collector.Record
}

// check judges one query result against the history: the query began at
// clock start and its snapshot was taken by snap. The result must be in time
// order, hold every record acked before start, and hold no record twice and
// none whose append had not begun by snap.
func (h *history) check(got []collector.Record, start, snap uint64) error {
	seen := make([]bool, len(h.recs))
	for j, rec := range got {
		if j > 0 && rec.Time.Before(got[j-1].Time) {
			return fmt.Errorf("result row %d (%v) is before row %d (%v)", j, rec.Time, j-1, got[j-1].Time)
		}
		i, ok := h.at[rec.Time.UnixNano()]
		if !ok || !recordsEqual(rec, h.recs[i]) {
			return fmt.Errorf("result row %d is no appended record: %v", j, rec)
		}
		if seen[i] {
			return fmt.Errorf("record %d (%v) returned twice", i, rec.Time)
		}
		seen[i] = true
		if b := h.begun[i].Load(); b == 0 || b > snap {
			return fmt.Errorf("record %d (%v) returned, but its append had not begun by the snapshot", i, rec.Time)
		}
	}
	for i := range h.acked {
		if a := h.acked[i].Load(); a != 0 && a < start && !seen[i] {
			return fmt.Errorf("record %d (%v) acked before the query began is missing (%d of %d returned)", i, h.recs[i].Time, len(got), len(h.recs))
		}
	}
	return nil
}

// TestSealFailureRequeues drives a seal into a transient write error and
// checks the failure contract: the error surfaces from Seal, every detached
// record returns to the memtable (still query-visible, still counted), and
// the next Seal lands them all with the rotated WAL files cleaned up behind
// it.
func TestSealFailureRequeues(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Window: time.Hour, BlockRecords: 16, FlushEvery: 1000}
	// Write 1 is the explicit WAL flush; write 2 is the segment body.
	opts.FS = faults.NewInjector(faults.Disk{}, faults.Plan{Seed: 11, FailWriteN: 2})
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := s.Writer()
	const n = 40
	for i := 0; i < n; i++ {
		if err := w.Append(faultRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err == nil {
		t.Fatal("seal should fail on the injected segment write error")
	}
	got, _ := queryAll(t, s, Query{})
	if len(got) != n {
		t.Fatalf("after failed seal %d of %d records visible", len(got), n)
	}
	st := s.Stats()
	if st.MemRecords != n || st.Segments != 0 {
		t.Fatalf("failed seal should requeue everything: %+v", st)
	}
	if err := w.Seal(); err != nil {
		t.Fatalf("retry seal: %v", err)
	}
	st = s.Stats()
	if st.MemRecords != 0 || st.Records != n {
		t.Fatalf("retry seal did not land the requeued records: %+v", st)
	}
	got, _ = queryAll(t, s, Query{})
	if len(got) != n {
		t.Fatalf("after retry seal %d of %d records visible", len(got), n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			t.Fatalf("rotated WAL %s not cleaned up after successful seal", e.Name())
		}
	}
}

// TestRotatedWALRecovery pins the crash window unique to background sealing:
// the WAL has been rotated and some segments renamed, but the process dies
// before the rotated file is deleted. Reopening must replay the rotated WAL,
// dedupe the sealed prefix by sequence range, and recover the rest — then
// delete or retain the rotated file according to whether it is still needed.
func TestRotatedWALRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Window: time.Hour, BlockRecords: 16, FlushEvery: 4}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer()
	const n = 30
	for i := 0; i < n; i++ {
		if err := w.Append(faultRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the crash window by hand: put a rotated WAL holding every
	// record back in the directory, as if the seal died after its segment
	// renames but before WAL cleanup.
	var frames []byte
	for i := 0; i < n; i++ {
		rec := faultRecord(i)
		frames, err = recordWALFrame(frames, s.windowStart(rec.Time), uint64(i+1), rec)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rot := filepath.Join(dir, walRotName(0))
	if err := os.WriteFile(rot, frames, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := queryAll(t, s2, Query{})
	verifyRecoveredPrefix(t, got, n)
	if len(got) != n {
		t.Fatalf("recovered %d of %d records", len(got), n)
	}
	if st := s2.Stats(); st.MemRecords != 0 {
		t.Fatalf("fully covered rotated WAL replayed into memtable: %+v", st)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(rot); !os.IsNotExist(err) {
		t.Fatalf("fully covered rotated WAL should be deleted at open, stat err=%v", err)
	}

	// Same again, but with a tail the segments do not cover: the extra
	// records must land in the memtable and the rotated file must survive
	// until a seal covers it.
	extra := appendExtraFrames(t, s2, frames, n, 10)
	if err := os.WriteFile(rot, extra, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = queryAll(t, s3, Query{})
	if len(got) != n+10 {
		t.Fatalf("recovered %d of %d records", len(got), n+10)
	}
	if st := s3.Stats(); st.MemRecords != 10 {
		t.Fatalf("partially covered rotated WAL: want 10 memtable records, got %+v", st)
	}
	if _, err := os.Stat(rot); err != nil {
		t.Fatalf("partially covered rotated WAL must survive open: %v", err)
	}
	if err := s3.Writer().Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(rot); !os.IsNotExist(err) {
		t.Fatalf("rotated WAL should be deleted once sealed over, stat err=%v", err)
	}
	got, _ = queryAll(t, s3, Query{})
	verifyRecoveredPrefix(t, got, n+10)
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
}

// appendExtraFrames extends a frame buffer with `extra` more fault records
// continuing the sequence from n.
func appendExtraFrames(t *testing.T, s *Store, frames []byte, n, extra int) []byte {
	t.Helper()
	out := append([]byte(nil), frames...)
	var err error
	for i := n; i < n+extra; i++ {
		rec := faultRecord(i)
		out, err = recordWALFrame(out, s.windowStart(rec.Time), uint64(i+1), rec)
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestCrashLoopBackgroundSeal is the crash harness aimed at the background
// seal pipeline: auto-seal fires every 25 records, so the randomized kill
// points land inside detach, rotation, block compression, segment rename,
// publish, and WAL cleanup — concurrent with the appending thread. The
// recovery contract is unchanged: no acknowledged record lost, none
// duplicated, recovery prefix-consistent.
func TestCrashLoopBackgroundSeal(t *testing.T) {
	trials := *crashloopTrials
	if testing.Short() {
		trials = 40
	}
	rng := rand.New(rand.NewSource(*crashloopSeed + 9))
	for trial := 0; trial < trials; trial++ {
		crashOp := 1 + rng.Intn(170)
		seed := rng.Int63()
		t.Run("", func(t *testing.T) {
			dir := t.TempDir()
			inj := faults.NewInjector(faults.Disk{}, faults.Plan{Seed: seed, CrashAtOp: crashOp})
			opts := faultOptions()
			opts.Sync = true
			opts.FS = inj
			opts.AutoSealRecords = 25

			acked, appended := runBackgroundCrashScript(t, dir, opts)

			s, err := Open(dir, faultOptions())
			if err != nil {
				t.Fatalf("crashOp=%d seed=%d: reopen: %v", crashOp, seed, err)
			}
			defer s.Close()
			recs, _ := queryAll(t, s, Query{})
			verifyRecoveredPrefix(t, recs, acked)
			if !inj.Stats().Crashed && len(recs) != appended {
				t.Fatalf("crashOp=%d never fired but recovered %d of %d records",
					crashOp, len(recs), appended)
			}
		})
	}
}

// runBackgroundCrashScript appends 130 records with flush-acks every 10
// while background auto-seals run underneath, compacting once near the end.
// The store is abandoned without Close — but only after joining any seal
// still in flight, as even a crashing process's goroutines stop at its
// file descriptors.
func runBackgroundCrashScript(t *testing.T, dir string, opts Options) (acked, appended int) {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		if errors.Is(err, faults.ErrCrashed) {
			return 0, 0
		}
		t.Fatalf("initial open: %v", err)
	}
	defer func() {
		s.joinSeal() // crashed batches finish fast: every op fails
		s.mu.Lock()
		s.wal.close()
		s.closed = true
		s.mu.Unlock()
	}()
	w := s.Writer()
	for appended < 130 {
		if err := w.Append(faultRecord(appended)); err != nil {
			return acked, appended
		}
		appended++
		if appended%10 == 0 {
			if err := w.Flush(); err != nil {
				return acked, appended
			}
			acked = appended
		}
		if appended == 100 {
			if _, err := s.Compact(); err != nil {
				return acked, appended
			}
		}
	}
	if err := s.joinSeal(); err != nil {
		return acked, appended
	}
	if err := w.Flush(); err != nil {
		return acked, appended
	}
	acked = appended
	return acked, appended
}

// TestCloseDuringParkedAppends pins the backpressure/Close contract:
// appenders parked behind a full seal queue (one batch sealing, one queued)
// must always wake when a concurrent Close sweeps the store, must not hand
// Close fresh seal batches to join (under sustained appends that livelocks
// the close), and every append acked before the close must be sealed and
// readable after reopen.
func TestCloseDuringParkedAppends(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.AutoSealRecords = 64 // tiny threshold so appenders park constantly
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer()
	const workers = 8
	acked := make([]int64, workers)
	var wg sync.WaitGroup
	base := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Unbounded supply: keep appending until Close cuts us off.
			for i := 0; ; i++ {
				prefix := netaddr.MustPrefix(netaddr.Addr(0xc6000000|uint32(g)<<16|uint32(i%200)<<8), 24)
				rec := mkRecord(base.Add(time.Duration(i)*time.Millisecond), bgp.ASN(100+g), bgp.ASN(7000+g), prefix, true)
				if err := w.Append(rec); err != nil {
					if !strings.Contains(err.Error(), "after Close") {
						t.Errorf("append: %v", err)
					}
					return
				}
				acked[g]++
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond) // let the backpressure path engage
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return under sustained parked appends")
	}
	wg.Wait()
	var total int64
	for _, n := range acked {
		total += n
	}
	if total == 0 {
		t.Fatal("no appends acked before Close")
	}
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().Records; got != total {
		t.Fatalf("reopened store has %d sealed records, want %d acked", got, total)
	}
}

// sealFaultFS fails segment creates, optionally holding the first one until
// released — a persistently failing data disk under a healthy WAL.
type sealFaultFS struct {
	faults.FS
	mu      sync.Mutex
	gate    chan struct{} // first create blocks here until closed
	entered chan struct{} // closed when the first create arrives
}

func (f *sealFaultFS) Create(name string) (faults.File, error) {
	if !strings.Contains(filepath.Base(name), segPrefix) {
		return f.FS.Create(name)
	}
	f.mu.Lock()
	gate, entered := f.gate, f.entered
	f.gate, f.entered = nil, nil
	f.mu.Unlock()
	if entered != nil {
		close(entered)
	}
	if gate != nil {
		<-gate
	}
	return nil, errors.New("segment disk full")
}

// TestParkedAppendSurfacesSealError pins the other half of the backpressure
// contract: an appender parked on a seal batch that fails must wake with the
// batch's error, not ack silently while background retries cycle the failed
// windows through detach/requeue forever and stale WALs accumulate.
func TestParkedAppendSurfacesSealError(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	fs := &sealFaultFS{FS: faults.Disk{}, gate: gate, entered: entered}
	opts := testOptions()
	opts.FS = fs
	opts.AutoSealRecords = 16
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	w := s.Writer()
	appendErr := make(chan error, 1)
	go func() {
		for i := 0; i < 100000; i++ {
			prefix := netaddr.MustPrefix(netaddr.Addr(0xc6000000|uint32(i%200)<<8), 24)
			rec := mkRecord(base.Add(time.Duration(i)*time.Millisecond), 100, 7000, prefix, true)
			if err := w.Append(rec); err != nil {
				appendErr <- err
				return
			}
		}
		appendErr <- nil
	}()
	// The first auto-seal is parked inside Create; once a second batch is
	// queued behind it and the memtable is full again, the appender parks on
	// the first. Release the create so the batch fails under the parked
	// appender.
	<-entered
	for {
		s.mu.Lock()
		parked := len(s.seals) == 2 && s.memN >= opts.AutoSealRecords
		s.mu.Unlock()
		if parked {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	select {
	case err := <-appendErr:
		if err == nil {
			t.Fatal("append stream completed without surfacing the seal failure")
		}
		if !strings.Contains(err.Error(), "segment disk full") {
			t.Fatalf("append error = %v, want the seal failure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("appender never surfaced the seal failure")
	}
	s.mu.Lock()
	s.wal.close()
	s.closed = true
	s.mu.Unlock()
}

// TestCutKeepsOpenWindow pins the carry rule of an auto-seal cut: a stream
// arriving in time order, no window holding more than half a threshold,
// seals every window whole — one segment each — so Compact has nothing to
// rewrite. The window still filling at a cut stays in the memtable, and after
// the cut the memtable holds at most half a threshold.
func TestCutKeepsOpenWindow(t *testing.T) {
	const threshold = 64
	rng := rand.New(rand.NewSource(45))
	start := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	var recs []collector.Record
	const windows = 40
	for h := 0; h < windows; h++ {
		n := 1 + rng.Intn(threshold/2)
		for i := 0; i < n; i++ {
			ts := start.Add(time.Duration(h)*time.Hour + time.Duration(i)*time.Second)
			prefix := netaddr.MustPrefix(netaddr.Addr(0xc6000000+uint32(h)<<16+uint32(i)<<8), 24)
			recs = append(recs, mkRecord(ts, bgp.ASN(100+i%4), bgp.ASN(7000+h), prefix, i%3 != 0))
		}
	}
	opts := Options{Window: time.Hour, BlockRecords: 16, AutoSealRecords: threshold}
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := s.Writer()
	for rest := recs; len(rest) > 0; {
		n := min(len(rest), 1+rng.Intn(100))
		if err := w.AppendBatch(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
		s.mu.Lock()
		memN := s.memN
		s.mu.Unlock()
		if memN >= threshold {
			t.Fatalf("memtable holds %d records after an append, threshold %d", memN, threshold)
		}
	}
	if st := s.Stats(); st.Segments+st.SealingRecords == 0 {
		t.Fatal("no auto-seal cut")
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments != windows || st.Windows != windows {
		t.Fatalf("%d windows sealed into %d segments, want one each", st.Windows, st.Segments)
	}
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.RecordsRewritten != 0 || cs.SegmentsMerged != 0 {
		t.Fatalf("compaction rewrote %d records of %d segments, want none", cs.RecordsRewritten, cs.SegmentsMerged)
	}
	got, _ := queryAll(t, s, Query{})
	assertSameRecords(t, got, recs)
}

// carryOptions gives the carry crash test windows of 8 fault records (one a
// second) under a threshold of 20, so every auto-seal cut carries the
// window its cut record falls in.
func carryOptions() Options {
	return Options{Window: 8 * time.Second, BlockRecords: 16, FlushEvery: 1, AutoSealRecords: 20}
}

// TestCarriedWindowSurvivesCrash kills the filesystem at every mutating
// operation, in turn, of a script whose auto-seal cuts all carry a window:
// the WAL rotation, the re-log of the carried rows and its sync, the segment
// writes and renames, and the deletion of the rotated WAL. Each append is its
// own synced commit and each seal is joined before the next append, so the
// operation sequence is the same on every run. Reopened, the store must hold
// a duplicate-free, gap-free prefix of the appends: every acknowledged one,
// and at most the one the crash interrupted.
func TestCarriedWindowSurvivesCrash(t *testing.T) {
	const appends = 70
	for crashOp := 1; ; crashOp++ {
		dir := t.TempDir()
		inj := faults.NewInjector(faults.Disk{}, faults.Plan{Seed: int64(crashOp), CrashAtOp: crashOp})
		opts := carryOptions()
		opts.Sync = true
		opts.FS = inj
		acked := func() int {
			s, err := Open(dir, opts)
			if err != nil {
				return 0
			}
			defer func() {
				s.joinSeal()
				s.mu.Lock()
				s.wal.close()
				s.closed = true
				s.mu.Unlock()
			}()
			w := s.Writer()
			for i := 0; i < appends; i++ {
				if w.Append(faultRecord(i)) != nil || s.joinSeal() != nil {
					return i
				}
			}
			return appends
		}()

		s, err := Open(dir, carryOptions())
		if err != nil {
			t.Fatalf("crashOp=%d: reopen: %v", crashOp, err)
		}
		recs, _ := queryAll(t, s, Query{})
		verifyRecoveredPrefix(t, recs, acked)
		if len(recs) > acked+1 {
			t.Fatalf("crashOp=%d: recovered %d records, %d acknowledged", crashOp, len(recs), acked)
		}
		if !inj.Stats().Crashed {
			// The script ran out before the crash point: every operation
			// has had its turn. The crash-free run must have sealed every
			// finished window whole, so the cuts did carry.
			if acked != appends || len(recs) != appends {
				t.Fatalf("crash-free run: %d acknowledged, %d recovered of %d", acked, len(recs), appends)
			}
			if st := s.Stats(); st.Segments != appends/8 {
				t.Fatalf("crash-free run sealed %d segments, want %d whole windows", st.Segments, appends/8)
			}
			s.Close()
			return
		}
		if err := s.Close(); err != nil {
			t.Fatalf("crashOp=%d: close after recovery: %v", crashOp, err)
		}
	}
}

// TestRelogDuplicateMustMatch pins the replay rule for re-logged rows: an
// entry whose (window, seq) the memtable already holds is the carried copy
// and is skipped when it encodes exactly as the held row, and fails Open with
// ErrCorrupt when it differs in any field.
func TestRelogDuplicateMustMatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(rec *collector.Record)
	}{
		{"identical", func(*collector.Record) {}},
		{"peer", func(rec *collector.Record) { rec.PeerAS++ }},
		{"time", func(rec *collector.Record) { rec.Time = rec.Time.Add(time.Nanosecond) }},
		{"attrs", func(rec *collector.Record) { rec.Attrs.Path = bgp.PathFromASNs(rec.PeerAS, 3000, 9999) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := faultOptions()
			frames := func(from, to int, mangle func(rec *collector.Record)) []byte {
				var b []byte
				for i := from; i < to; i++ {
					rec := faultRecord(i)
					if i == 4 && mangle != nil {
						mangle(&rec)
					}
					var err error
					if b, err = recordWALFrame(b, faultBase.UnixNano(), uint64(i+1), rec); err != nil {
						t.Fatal(err)
					}
				}
				return b
			}
			// The rotated WAL holds rows 0-9; the live one re-logs 3-9 (the
			// carried rows, one of them mangled) and goes on with 10-14.
			if err := os.WriteFile(filepath.Join(dir, walRotName(0)), frames(0, 10, nil), 0o644); err != nil {
				t.Fatal(err)
			}
			live := append(frames(3, 10, tc.mangle), frames(10, 15, nil)...)
			if err := os.WriteFile(filepath.Join(dir, walName), live, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, opts)
			if tc.name != "identical" {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("open over a mismatched re-logged row: %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			got, _ := queryAll(t, s, Query{})
			verifyRecoveredPrefix(t, got, 15)
			if len(got) != 15 {
				t.Fatalf("recovered %d records, want 15", len(got))
			}
		})
	}
}

// TestRelogFailureKeepsRotatedWAL fails the re-log of a carried window. The
// cut still succeeds and its batch seals, but the rotated WAL stays, as the
// only file holding the carried rows, until a later cut's batch claims it;
// then a crash loses no record.
func TestRelogFailureKeepsRotatedWAL(t *testing.T) {
	dir := t.TempDir()
	opts := carryOptions()
	// Writes 1-20 are the first 20 appends; write 21 is the re-log of the
	// window the cut at record 19 carries.
	inj := faults.NewInjector(faults.Disk{}, faults.Plan{Seed: 1, FailWriteN: 21})
	opts.FS = inj
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer()
	appendUpTo := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := w.Append(faultRecord(i)); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		if err := s.joinSeal(); err != nil {
			t.Fatal(err)
		}
	}
	first := filepath.Join(dir, walRotName(0))
	appendUpTo(0, 30)
	if inj.Stats().Injected != 1 {
		t.Fatal("the re-log write did not fail")
	}
	if _, err := os.Stat(first); err != nil {
		t.Fatalf("rotated WAL behind a failed re-log was deleted: %v", err)
	}
	appendUpTo(30, 40)
	if _, err := os.Stat(first); !os.IsNotExist(err) {
		t.Fatalf("rotated WAL outlived the batch that claimed it: %v", err)
	}
	// Abandon the store without sealing, as a crash would.
	s.wal.close()
	s.closed = true
	s2, err := Open(dir, carryOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _ := queryAll(t, s2, Query{})
	verifyRecoveredPrefix(t, got, 40)
	if len(got) != 40 {
		t.Fatalf("recovered %d of 40 records", len(got))
	}
}
