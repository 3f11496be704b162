package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// TestSealedBytesIdenticalAcrossWorkers pins the parallel seal contract:
// segment files written with one block-compression worker and with eight are
// byte-for-byte identical, through both the seal and the compaction (merge
// rewrite) paths. Everything downstream — fingerprints, caches, replication
// by rsync — is allowed to assume worker count never shows in the bytes.
func TestSealedBytesIdenticalAcrossWorkers(t *testing.T) {
	recs := hourlyWorkload(3, 400)
	build := func(workers int) map[string][]byte {
		dir := t.TempDir()
		opts := testOptions()
		opts.SealWorkers = workers
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		w := s.Writer()
		// Two seals per window, then a compaction, so the merged segments
		// exercise the parallel rewrite as well.
		half := len(recs) / 2
		if err := w.AppendBatch(recs[:half]); err != nil {
			t.Fatal(err)
		}
		if err := w.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := w.AppendBatch(recs[half:]); err != nil {
			t.Fatal(err)
		}
		if err := w.Seal(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return readSegmentFiles(t, dir)
	}
	serial := build(1)
	parallel := build(8)
	if len(serial) == 0 {
		t.Fatal("no segments written")
	}
	if len(serial) != len(parallel) {
		t.Fatalf("segment sets differ: %d serial vs %d parallel", len(serial), len(parallel))
	}
	for name, sb := range serial {
		pb, ok := parallel[name]
		if !ok {
			t.Fatalf("segment %s missing from parallel store", name)
		}
		if !bytes.Equal(sb, pb) {
			t.Fatalf("segment %s differs between 1 and 8 seal workers (%d vs %d bytes)",
				name, len(sb), len(pb))
		}
	}
}

// TestBackgroundSealRaceHammer batters a store with concurrent batch
// appenders while background auto-seals detach, seal, and publish under
// them and eight readers scan the moving overlay. Run under -race this is
// the memory-safety check for the seal pipeline; the final content check is
// the visibility one (no record ever missing or doubled, whatever stage of
// the pipeline it was caught in).
func TestBackgroundSealRaceHammer(t *testing.T) {
	opts := testOptions()
	opts.AutoSealRecords = 256
	opts.BlockCacheBytes = 1 << 20
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := hourlyWorkload(2, 2000)
	w := s.Writer()

	const appenders = 4
	var wg sync.WaitGroup
	done := make(chan struct{})
	errc := make(chan error, appenders+8)
	chunk := (len(recs) + appenders - 1) / appenders
	for a := 0; a < appenders; a++ {
		lo := a * chunk
		hi := min(lo+chunk, len(recs))
		wg.Add(1)
		go func(part []collector.Record) {
			defer wg.Done()
			for len(part) > 0 {
				n := min(100, len(part))
				if err := w.AppendBatch(part[:n]); err != nil {
					errc <- err
					return
				}
				part = part[n:]
			}
		}(recs[lo:hi])
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
				rd, err := s.Query(Query{})
				if err != nil {
					errc <- err
					return
				}
				got, err := rd.ReadAll()
				rd.Close()
				if err != nil {
					errc <- err
					return
				}
				if len(got) > len(recs) {
					errc <- errors.New("query returned more records than appended")
					return
				}
			}
		}()
	}
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
		frames, err = appendWALFrame(frames, s.windowStart(rec.Time), uint64(i+1), rec, nil)
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
		out, err = appendWALFrame(out, s.windowStart(rec.Time), uint64(i+1), rec, nil)
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
// appenders parked at the 2x auto-seal threshold must always wake when a
// concurrent Close sweeps the store, must not hand Close fresh seal batches
// to join (under sustained appends that livelocks the close), and every
// append acked before the close must be sealed and readable after reopen.
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
	// The first auto-seal is parked inside Create; once the appender has run
	// a full threshold ahead it parks on the batch. Release the create so the
	// batch fails under the parked appender.
	<-entered
	for {
		s.mu.Lock()
		parked := s.memN >= 2*opts.AutoSealRecords
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
