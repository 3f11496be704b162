package store

import (
	"errors"
	"flag"
	"math/rand"
	"testing"

	"instability/internal/faults"
)

var (
	crashloopSeed = flag.Int64("crashloop-seed", 1,
		"seed for the crash-loop harness; CI pins it so failures reproduce")
	crashloopTrials = flag.Int("crashloop-trials", 200,
		"randomized kill points the crash-loop harness runs")
)

// TestCrashLoop is the acceptance harness for the durability contract: it
// repeatedly runs a deterministic ingest/seal/compact script against a
// filesystem that drops dead at a randomized mutating operation (tearing the
// write in flight, as a power cut would), then reopens the directory on a
// healthy filesystem and checks the recovered store.
//
// The contract checked on every reopen:
//
//   - no acknowledged record is lost: everything appended before the last
//     successful Flush or Seal (with Sync on, both imply fsync) is recovered;
//   - no record is duplicated, even when the crash lands between a seal and
//     the WAL truncate (the seq-range dedupe window);
//   - recovery is prefix-consistent: the surviving records are exactly the
//     first k appends for some k, never a gappy subset.
func TestCrashLoop(t *testing.T) {
	trials := *crashloopTrials
	if testing.Short() {
		trials = 40
	}
	rng := rand.New(rand.NewSource(*crashloopSeed))
	for trial := 0; trial < trials; trial++ {
		crashOp := 1 + rng.Intn(140)
		seed := rng.Int63()
		t.Run("", func(t *testing.T) {
			dir := t.TempDir()
			inj := faults.NewInjector(faults.Disk{}, faults.Plan{Seed: seed, CrashAtOp: crashOp})
			opts := faultOptions()
			opts.Sync = true
			opts.FS = inj

			acked, appended := runCrashScript(t, dir, opts)

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

// runCrashScript drives a fixed ingest -> flush -> seal -> compact script
// until the filesystem dies (or the script completes), returning how many
// records were acknowledged as durable and how many were appended in total.
// The store is abandoned without Close, as a crashed process leaves it.
func runCrashScript(t *testing.T, dir string, opts Options) (acked, appended int) {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		if errors.Is(err, faults.ErrCrashed) {
			return 0, 0
		}
		t.Fatalf("initial open: %v", err)
	}
	defer func() {
		// Release file handles only; no seal, no flush — crash semantics.
		s.wal.close()
		s.closed = true
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
		switch appended {
		case 30, 60, 90:
			if err := w.Seal(); err != nil {
				return acked, appended
			}
			acked = appended
		case 100:
			if _, err := s.Compact(); err != nil {
				return acked, appended
			}
		}
	}
	if err := w.Flush(); err != nil {
		return acked, appended
	}
	acked = appended
	return acked, appended
}

// TestCrashLoopDeterminism pins that a crash trial is reproducible: the same
// seed and kill point leave byte-identical surviving record sets, which is
// what makes a CI failure from the randomized harness debuggable.
func TestCrashLoopDeterminism(t *testing.T) {
	run := func() ([]int, int) {
		dir := t.TempDir()
		inj := faults.NewInjector(faults.Disk{}, faults.Plan{Seed: 7, CrashAtOp: 23})
		opts := faultOptions()
		opts.Sync = true
		opts.FS = inj
		acked, _ := runCrashScript(t, dir, opts)
		s, err := Open(dir, faultOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		recs, _ := queryAll(t, s, Query{})
		idx := make([]int, len(recs))
		for i, rec := range recs {
			idx[i] = faultRecordIndex(t, rec)
		}
		return idx, acked
	}
	idx1, acked1 := run()
	idx2, acked2 := run()
	if acked1 != acked2 || len(idx1) != len(idx2) {
		t.Fatalf("crash trial not deterministic: %d/%d acked, %d/%d recovered",
			acked1, acked2, len(idx1), len(idx2))
	}
	for i := range idx1 {
		if idx1[i] != idx2[i] {
			t.Fatalf("recovered sets diverge at %d: %d vs %d", i, idx1[i], idx2[i])
		}
	}
}
