// Package lru is the one byte-budget cache in the tree: a strict LRU whose
// loads are single-flight. The store's decoded-block cache and the serving
// plane's aggregate-result cache are both instances of it; each supplies only
// its key type, its cost function, its drop predicate, and its metric wiring.
package lru

import (
	"container/list"
	"sync"
)

// Outcome says how one GetOrLoad call was answered.
type Outcome uint8

const (
	Loaded Outcome = iota // this caller ran load itself
	Hit                   // the value was resident
	Shared                // waited on another caller's load of the same key
)

// Stats is a point-in-time snapshot of one cache.
type Stats struct {
	Budget  int64
	Used    int64 // Σ cost of resident entries, always ≤ Budget
	Entries int
	// Hits, Shared and Loads count lookups by outcome. A Get that misses is
	// not counted: it decides nothing, the GetOrLoad that follows does.
	Hits, Shared, Loads uint64
	// Evictions counts entries pushed out by budget pressure, Dropped those
	// removed by DropIf.
	Evictions, Dropped uint64
}

// Cache is a byte-budget LRU with load-once semantics, safe for concurrent
// use. When two callers miss the same key concurrently one runs the load and
// the other waits for its result, so a herd of identical lookups costs one
// computation. A budget of zero (or less) disables residency — nothing is
// ever stored — and leaves only the coalescing.
type Cache[K comparable, V any] struct {
	cost     func(K, V) int64
	onChange func(used int64, entries, evicted int)

	mu      sync.Mutex
	ll      *list.List // front = most recently used; values are *entry[K, V]
	entries map[K]*list.Element
	flights map[K]*flight[V]
	st      Stats // Budget fixed; Entries filled in by Stats()
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// flight is one in-progress load; waiters block on done. dropped is set
// (under the cache mutex) when DropIf matches the key mid-load: the result is
// still served to every waiter but must not be inserted — the caller has
// declared the key unreachable, so the entry could never be hit again and
// would squat on budget until LRU pressure happened to evict it.
type flight[V any] struct {
	done    chan struct{}
	val     V
	err     error
	dropped bool
}

// New returns an empty cache holding at most budget bytes as priced by cost.
// onChange, when non-nil, is called with the cache mutex held after every
// change to what is resident — an insert (evicted = entries the budget pushed
// out to make room) or a DropIf — so the owner can keep gauges and eviction
// counters exact; it must not call back into the cache.
func New[K comparable, V any](budget int64, cost func(K, V) int64, onChange func(used int64, entries, evicted int)) *Cache[K, V] {
	return &Cache[K, V]{
		cost:     cost,
		onChange: onChange,
		ll:       list.New(),
		entries:  make(map[K]*list.Element),
		flights:  make(map[K]*flight[V]),
		st:       Stats{Budget: budget},
	}
}

// Get returns the resident value for key, marking it most recently used. It
// never loads and never waits on a load in flight.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if ok {
		c.ll.MoveToFront(el)
		c.st.Hits++
		v = el.Value.(*entry[K, V]).val
	}
	return v, ok
}

// GetOrLoad returns the cached value for key, or runs load exactly once
// (across all concurrent callers) to produce, cache, and return it. Failed
// loads are never cached; every waiter of a failed flight observes the same
// error. A value costing more than the whole budget is served but never
// cached — inserting it would only evict everything else on its way to being
// evicted itself.
func (c *Cache[K, V]) GetOrLoad(key K, load func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.st.Hits++
		c.mu.Unlock()
		return el.Value.(*entry[K, V]).val, Hit, nil
	}
	if fl, ok := c.flights[key]; ok {
		c.st.Shared++
		c.mu.Unlock()
		<-fl.done
		return fl.val, Shared, fl.err
	}
	fl := &flight[V]{done: make(chan struct{})}
	c.flights[key] = fl
	c.st.Loads++
	c.mu.Unlock()

	fl.val, fl.err = load()

	c.mu.Lock()
	delete(c.flights, key)
	if fl.err == nil && !fl.dropped {
		c.insertLocked(key, fl.val)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, Loaded, fl.err
}

// insertLocked adds one value and evicts from the LRU tail until the budget
// holds again.
func (c *Cache[K, V]) insertLocked(key K, val V) {
	cost := c.cost(key, val)
	if cost > c.st.Budget {
		return
	}
	c.entries[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val, cost: cost})
	c.st.Used += cost
	evicted := 0
	for ; c.st.Used > c.st.Budget; evicted++ {
		c.removeLocked(c.ll.Back())
	}
	c.st.Evictions += uint64(evicted)
	c.changedLocked(evicted)
}

func (c *Cache[K, V]) removeLocked(el *list.Element) {
	ent := c.ll.Remove(el).(*entry[K, V])
	delete(c.entries, ent.key)
	c.st.Used -= ent.cost
}

func (c *Cache[K, V]) changedLocked(evicted int) {
	if c.onChange != nil {
		c.onChange(c.st.Used, len(c.entries), evicted)
	}
}

// DropIf removes every resident entry whose key matches and returns how many
// it removed. Loads of matching keys still in flight are marked so they do
// not insert on completion; their waiters are served all the same.
func (c *Cache[K, V]) DropIf(match func(K) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if match(el.Value.(*entry[K, V]).key) {
			c.removeLocked(el)
			n++
		}
		el = next
	}
	for key, fl := range c.flights {
		if match(key) {
			fl.dropped = true
		}
	}
	c.st.Dropped += uint64(n)
	c.changedLocked(0)
	return n
}

// Stats snapshots the cache's counters and occupancy.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Entries = len(c.entries)
	return st
}
