package store

import "instability/internal/lru"

// blockCache is the store-wide cache of parsed segment blocks (colBlock in
// its owning form), shared by every reader of the store, so concurrent
// queries hit the same entries. It is
// the shared load-once LRU (internal/lru) keyed by (segment fingerprint,
// block index) and priced by decoded size: segments are immutable, so an
// entry can never be stale — compaction retires a segment's entries
// explicitly (dropSegment), and a restarted process re-keys naturally
// because fingerprints are content-derived.
//
// Loads are single-flight: when two scans miss the same cold block
// concurrently, one reads and parses it while the other waits for the
// result, so a thundering herd of identical dashboard queries costs one
// parse per block, not one per reader.
type blockCache struct {
	lru *lru.Cache[blockKey, *colBlock]
}

// blockKey identifies one decoded block. The segment half is the segment's
// content fingerprint (seq, window, sequence range, count), not its path, so
// a recycled file name can never alias a different block.
type blockKey struct {
	seg   uint64
	block int32
}

func newBlockCache(budget int64) *blockCache {
	return &blockCache{lru: lru.New(budget,
		func(_ blockKey, cb *colBlock) int64 { return cb.bytes },
		// The process-level gauges follow the cache's own ledger, updated
		// under its lock so they cannot go stale against it.
		func(used int64, entries, evicted int) {
			obsBlockCacheEvictions.Add(int64(evicted))
			obsBlockCacheBytes.SetInt(used)
			obsBlockCacheEntries.SetInt(int64(entries))
		})}
}

// getOrLoad returns the cached block for key, or runs load exactly once
// (across all concurrent callers) to produce, cache, and return it. hit
// reports whether the caller was served without doing the work itself — a
// resident entry or another caller's in-flight load.
func (c *blockCache) getOrLoad(key blockKey, load func() (*colBlock, error)) (*colBlock, bool, error) {
	cb, how, err := c.lru.GetOrLoad(key, load)
	if how == lru.Loaded {
		obsBlockCacheMisses.Inc()
	} else {
		obsBlockCacheHits.Inc()
	}
	return cb, how != lru.Loaded && err == nil, err
}

// dropSegment retires every entry of one segment. Compaction calls it for
// each segment it replaces: the keys could never be queried again (the
// segment is gone from the store), so leaving them to age out of the LRU
// would waste budget on unreachable blocks.
func (c *blockCache) dropSegment(fp uint64) {
	c.lru.DropIf(func(k blockKey) bool { return k.seg == fp })
}

// BlockCacheStats describes the shared parsed-block cache, surfaced
// through Store.Stats and the serving plane's /v1/statz.
type BlockCacheStats struct {
	Enabled     bool   `json:"enabled"`
	BudgetBytes int64  `json:"budget_bytes"`
	UsedBytes   int64  `json:"used_bytes"`
	Entries     int    `json:"entries"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
}

func (c *blockCache) stats() BlockCacheStats {
	if c == nil {
		return BlockCacheStats{}
	}
	st := c.lru.Stats()
	return BlockCacheStats{
		Enabled:     true,
		BudgetBytes: st.Budget,
		UsedBytes:   st.Used,
		Entries:     st.Entries,
		// A lookup that joined another reader's in-flight load was served
		// without touching disk: it is a hit here, as in Explain.
		Hits:      st.Hits + st.Shared,
		Misses:    st.Loads,
		Evictions: st.Evictions,
	}
}
