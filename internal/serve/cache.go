package serve

import (
	"strconv"
	"strings"

	"instability/internal/lru"
	"instability/internal/store"
)

// resultCache holds serialized aggregate responses under a byte budget: the
// shared load-once LRU (internal/lru) keyed by aggregateCacheKey. Identical
// aggregates in flight coalesce onto one computation — the request-batching
// stage in front of the store, so a dashboard fleet refreshing the same
// panel costs one QueryParallel, not N — and with a zero budget (caching
// disabled) that coalescing is all that is left. Keys embed the store
// generation they were computed under, so a stale entry can never be
// returned for a current-generation lookup; when the server observes a
// generation change it additionally sweeps the old entries out so the budget
// is not squatted by unreachable results.
type resultCache struct {
	lru *lru.Cache[string, []byte]
}

// cacheEntryOverhead approximates the bookkeeping bytes per entry (list
// element, map bucket share, entry struct) charged against the budget.
const cacheEntryOverhead = 128

func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{lru: lru.New(maxBytes,
		func(key string, body []byte) int64 { return int64(len(key)+len(body)) + cacheEntryOverhead },
		func(used int64, _, evicted int) {
			obsCacheEvictions.Add(int64(evicted))
			obsCacheBytes.SetInt(used)
		})}
}

// aggregateCacheKey is the identity of one cached aggregate: generation,
// kind, top bound, and the canonical query key.
func aggregateCacheKey(gen uint64, kind string, top int, q store.Query) string {
	return genPrefix(gen) + kind + "|" + strconv.Itoa(top) + "|" + q.Key()
}

// genPrefix starts every key computed under gen, and no key of another
// generation.
func genPrefix(gen uint64) string { return "g" + strconv.FormatUint(gen, 10) + "|" }

// get is the lookup stage on its own: a resident body or nothing. It never
// waits on a computation in flight, so the time spent here is the cache's,
// not the store's.
func (c *resultCache) get(key string) ([]byte, bool) {
	body, ok := c.lru.Get(key)
	if ok {
		obsCacheHits.Inc()
	}
	return body, ok
}

// getOrLoad answers key from the cache, from an identical computation
// already in flight, or by running load — whose result is cached unless it
// failed, outgrew the whole budget, or its generation was swept meanwhile.
func (c *resultCache) getOrLoad(key string, load func() ([]byte, error)) ([]byte, lru.Outcome, error) {
	body, how, err := c.lru.GetOrLoad(key, load)
	switch how {
	case lru.Hit:
		obsCacheHits.Inc()
	case lru.Shared:
		obsCacheMisses.Inc()
		obsCoalesced.Inc()
	case lru.Loaded:
		obsCacheMisses.Inc()
	}
	return body, how, err
}

// dropOldGens evicts every entry not computed under gen, and keeps such
// computations still in flight from landing. Called when the server notices
// the store sealed or compacted.
func (c *resultCache) dropOldGens(gen uint64) {
	cur := genPrefix(gen)
	n := c.lru.DropIf(func(key string) bool { return !strings.HasPrefix(key, cur) })
	obsCacheEvictions.Add(int64(n))
}

// counts snapshots the hit/miss/eviction counters (per-cache, unlike the
// process metrics, so tests and /v1/statz see this server alone). A request
// that shared another's computation missed the cache; a generation sweep
// evicts as surely as the size budget does.
func (c *resultCache) counts() (hits, misses, evictions uint64, bytes int64) {
	st := c.lru.Stats()
	return st.Hits, st.Shared + st.Loads, st.Evictions + st.Dropped, st.Used
}
