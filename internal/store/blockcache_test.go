package store

import (
	"math/rand"
	"sync"
	"testing"
)

// usedConsistent checks the cache's byte ledger from the outside: occupancy
// stays within [0, budget], and retiring every resident entry returns it to
// exactly zero — any drift between what inserts charged and what removals
// refunded shows up as a residue. It empties the cache. (That used bytes
// equal the summed cost of the resident entries after every operation is
// checked where the entries are visible, in internal/lru's model test.)
func usedConsistent(t *testing.T, c *blockCache) {
	t.Helper()
	st := c.stats()
	if st.UsedBytes < 0 || st.UsedBytes > st.BudgetBytes {
		t.Fatalf("used bytes %d outside [0, budget %d]", st.UsedBytes, st.BudgetBytes)
	}
	if n := c.lru.DropIf(func(blockKey) bool { return true }); n != st.Entries {
		t.Fatalf("dropped %d entries, stats counted %d resident", n, st.Entries)
	}
	if st := c.stats(); st.UsedBytes != 0 || st.Entries != 0 {
		t.Fatalf("emptied cache still accounts for %d bytes in %d entries", st.UsedBytes, st.Entries)
	}
}

// TestBlockCacheOversizedServedNotCached pins the oversized-block contract:
// a block bigger than the whole budget is served to the caller but never
// enters the cache, and serving it leaves the byte accounting untouched.
func TestBlockCacheOversizedServedNotCached(t *testing.T) {
	c := newBlockCache(100)
	key := blockKey{seg: 1, block: 0}
	loads := 0
	load := func() (*colBlock, error) {
		loads++
		return &colBlock{bytes: 150}, nil
	}
	for i := 0; i < 2; i++ {
		cb, hit, err := c.getOrLoad(key, load)
		if err != nil || cb == nil {
			t.Fatalf("load %d: cb=%v err=%v", i, cb, err)
		}
		if hit {
			t.Fatalf("load %d: oversized block reported as cache hit", i)
		}
		usedConsistent(t, c)
	}
	if loads != 2 {
		t.Fatalf("oversized block loaded %d times, want 2 (never cached)", loads)
	}
	if st := c.stats(); st.UsedBytes != 0 || st.Entries != 0 {
		t.Fatalf("oversized block left residue: %+v", st)
	}
}

// TestBlockCacheDropSegmentMidFlight pins the dropSegment/singleflight race:
// when a segment is retired while one of its blocks is still loading, the
// finished load is served to its waiters but must not be inserted — the
// entry would be unreachable (the segment is gone from the store) and would
// squat on budget until eviction pressure happened to reach it.
func TestBlockCacheDropSegmentMidFlight(t *testing.T) {
	c := newBlockCache(1 << 20)
	key := blockKey{seg: 7, block: 3}
	inLoad := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cb, _, err := c.getOrLoad(key, func() (*colBlock, error) {
			close(inLoad)
			<-release
			return &colBlock{bytes: 64}, nil
		})
		if err != nil || cb == nil {
			t.Errorf("getOrLoad: cb=%v err=%v", cb, err)
		}
	}()
	<-inLoad
	c.dropSegment(7)
	close(release)
	<-done
	if st := c.stats(); st.UsedBytes != 0 || st.Entries != 0 {
		t.Fatalf("dropped segment's block was cached anyway: %+v", st)
	}
	usedConsistent(t, c)

	// A block of a live segment loaded at the same time must still land.
	if _, _, err := c.getOrLoad(blockKey{seg: 8, block: 0}, func() (*colBlock, error) {
		return &colBlock{bytes: 64}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := c.stats(); st.UsedBytes != 64 || st.Entries != 1 {
		t.Fatalf("live segment's block missing: %+v", st)
	}
}

// TestBlockCacheAccountingUnderChurn hammers the cache with concurrent
// loads (some oversized), repeated segment drops, and purges, then checks
// the bytes-used ledger still matches the resident entries exactly.
func TestBlockCacheAccountingUnderChurn(t *testing.T) {
	c := newBlockCache(4096)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				seg := uint64(rng.Intn(4))
				key := blockKey{seg: seg, block: int32(rng.Intn(8))}
				size := int64(1 + rng.Intn(96))
				if rng.Intn(20) == 0 {
					size = 8192 // oversized: served, never cached
				}
				if _, _, err := c.getOrLoad(key, func() (*colBlock, error) {
					return &colBlock{bytes: size}, nil
				}); err != nil {
					t.Errorf("getOrLoad: %v", err)
					return
				}
				switch {
				case i%251 == 0:
					c.dropSegment(seg)
				case i%503 == 0:
					c.lru.DropIf(func(blockKey) bool { return true })
				}
			}
		}(w)
	}
	wg.Wait()
	usedConsistent(t, c)
}
