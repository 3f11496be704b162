package lru

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// The model test drives a Cache with a seeded sequence of operations and,
// after every one, compares it against a reference that is as dumb as a
// byte-budget LRU can be: a map of resident sizes plus a recency slice.

type val struct {
	size int64
	id   int // which load produced it
}

// model is the reference cache. order[0] is the most recently used key.
type model struct {
	budget             int64
	sizes              map[int]int64
	order              []int
	evictions, dropped uint64
}

func (m *model) used() int64 {
	var n int64
	for _, s := range m.sizes {
		n += s
	}
	return n
}

func (m *model) touch(k int) {
	m.order = slices.DeleteFunc(m.order, func(o int) bool { return o == k })
	m.order = slices.Insert(m.order, 0, k)
}

func (m *model) insert(k int, size int64) {
	if size > m.budget {
		return
	}
	m.sizes[k] = size
	m.touch(k)
	for m.used() > m.budget {
		last := m.order[len(m.order)-1]
		m.order = m.order[:len(m.order)-1]
		delete(m.sizes, last)
		m.evictions++
	}
}

func (m *model) dropIf(match func(int) bool) int {
	n := 0
	for k := range m.sizes {
		if match(k) {
			delete(m.sizes, k)
			n++
		}
	}
	m.order = slices.DeleteFunc(m.order, match)
	m.dropped += uint64(n)
	return n
}

// harness pairs the cache under test with its model and the tallies the
// invariants need.
type harness struct {
	t       *testing.T
	c       *Cache[int, val]
	m       *model
	lookups uint64 // Get hits + GetOrLoad calls
	nextID  int

	// What onChange last reported, and the evictions it has summed.
	hookUsed    int64
	hookEntries int
	hookEvicted uint64

	trace []string
}

func newHarness(t *testing.T, budget int64) *harness {
	h := &harness{t: t, m: &model{budget: budget, sizes: map[int]int64{}}}
	h.c = New(budget, func(_ int, v val) int64 { return v.size },
		func(used int64, entries, evicted int) {
			h.hookUsed, h.hookEntries = used, entries
			h.hookEvicted += uint64(evicted)
		})
	return h
}

func (h *harness) logf(format string, args ...any) {
	h.trace = append(h.trace, fmt.Sprintf(format, args...))
}

func (h *harness) failf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s\nops so far:\n  %s", fmt.Sprintf(format, args...), strings.Join(h.trace[max(0, len(h.trace)-25):], "\n  "))
}

// check is the invariant set, run after every operation at a quiescent
// point (no load in flight).
func (h *harness) check() {
	h.t.Helper()
	c, m := h.c, h.m
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	var order []int
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*entry[int, val])
		if got := c.cost(ent.key, ent.val); got != ent.cost {
			h.failf("key %d: recorded cost %d, cost function says %d", ent.key, ent.cost, got)
		}
		sum += ent.cost
		order = append(order, ent.key)
		if c.entries[ent.key] != el {
			h.failf("key %d: map and list disagree", ent.key)
		}
	}
	if c.st.Used != sum {
		h.failf("used = %d, resident entries cost %d", c.st.Used, sum)
	}
	if c.st.Used > c.st.Budget || c.st.Used < 0 {
		h.failf("used = %d outside [0, budget %d]", c.st.Used, c.st.Budget)
	}
	if len(c.entries) != c.ll.Len() {
		h.failf("map has %d keys, list %d elements", len(c.entries), c.ll.Len())
	}
	if len(c.flights) != 0 {
		h.failf("%d flights left behind", len(c.flights))
	}
	if !slices.Equal(order, m.order) {
		h.failf("recency order %v, model %v", order, m.order)
	}
	for k, size := range m.sizes {
		el, ok := c.entries[k]
		if !ok || el.Value.(*entry[int, val]).val.size != size {
			h.failf("key %d (size %d) resident in the model only", k, size)
		}
	}
	if got := c.st.Hits + c.st.Shared + c.st.Loads; got != h.lookups {
		h.failf("hits %d + shared %d + loads %d = %d, lookups %d", c.st.Hits, c.st.Shared, c.st.Loads, got, h.lookups)
	}
	if c.st.Evictions != m.evictions || c.st.Dropped != m.dropped {
		h.failf("evictions %d dropped %d, model %d %d", c.st.Evictions, c.st.Dropped, m.evictions, m.dropped)
	}
	if h.hookEvicted != c.st.Evictions {
		h.failf("onChange summed %d evictions, cache counted %d", h.hookEvicted, c.st.Evictions)
	}
	if (c.st.Evictions > 0 || c.st.Dropped > 0 || len(c.entries) > 0) && (h.hookUsed != c.st.Used || h.hookEntries != len(c.entries)) {
		h.failf("onChange last saw %d bytes in %d entries, cache holds %d in %d", h.hookUsed, h.hookEntries, c.st.Used, len(c.entries))
	}
}

func (h *harness) get(k int) {
	_, ok := h.c.Get(k)
	_, want := h.m.sizes[k]
	h.logf("Get(%d) = %v", k, ok)
	if ok != want {
		h.failf("Get(%d) = %v, model says %v", k, ok, want)
	}
	if ok {
		h.lookups++
		h.m.touch(k)
	}
}

var errLoad = errors.New("load failed")

// load is one GetOrLoad whose load, if it runs, produces size bytes (or
// fails).
func (h *harness) load(k int, size int64, fail bool) {
	h.nextID++
	id, ran := h.nextID, 0
	v, how, err := h.c.GetOrLoad(k, func() (val, error) {
		ran++
		if fail {
			return val{}, errLoad
		}
		return val{size: size, id: id}, nil
	})
	h.lookups++
	h.logf("GetOrLoad(%d, size %d, fail %v) = %v %v", k, size, fail, how, err)
	if resident, ok := h.m.sizes[k]; ok {
		if how != Hit || ran != 0 || err != nil || v.size != resident {
			h.failf("resident key %d: outcome %v, load ran %d, err %v, size %d want %d", k, how, ran, err, v.size, resident)
		}
		h.m.touch(k)
		return
	}
	if how != Loaded || ran != 1 {
		h.failf("absent key %d: outcome %v, load ran %d times", k, how, ran)
	}
	if fail {
		if !errors.Is(err, errLoad) {
			h.failf("failed load of %d returned %v", k, err)
		}
		return
	}
	if err != nil || v.id != id {
		h.failf("load of %d returned %+v, %v", k, v, err)
	}
	h.m.insert(k, size)
}

// herd is the coalesced group: a leader enters load for an absent key and
// parks there; waiters join; optionally midFlight runs with the load still
// in flight (dropsKey says it was a DropIf matching k); then the leader is
// released. The load must have run once, everyone must see its result, and a
// dropped key must not have become resident.
func (h *harness) herd(k int, size int64, waiters int, fail bool, midFlight func(), dropsKey bool) {
	if _, ok := h.m.sizes[k]; ok {
		return
	}
	h.nextID++
	id, ran := h.nextID, 0
	inLoad, release := make(chan struct{}), make(chan struct{})
	type result struct {
		v   val
		how Outcome
		err error
	}
	results := make(chan result, waiters+1)
	var wg sync.WaitGroup
	call := func(load func() (val, error)) {
		defer wg.Done()
		v, how, err := h.c.GetOrLoad(k, load)
		results <- result{v, how, err}
	}
	shared0 := h.c.Stats().Shared
	wg.Add(1)
	go call(func() (val, error) {
		ran++
		close(inLoad)
		<-release
		if fail {
			return val{}, errLoad
		}
		return val{size: size, id: id}, nil
	})
	<-inLoad
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go call(func() (val, error) {
			h.t.Error("a waiter's load ran")
			return val{}, nil
		})
	}
	// A waiter is counted as it joins the flight, before it blocks.
	for h.c.Stats().Shared != shared0+uint64(waiters) {
		time.Sleep(50 * time.Microsecond)
	}
	if _, ok := h.c.Get(k); ok {
		h.failf("key %d resident while its load is in flight", k)
	}
	if midFlight != nil {
		midFlight()
	}
	close(release)
	wg.Wait()
	close(results)
	h.lookups += uint64(waiters) + 1
	h.logf("herd(%d, size %d, %d waiters, fail %v, dropped in flight %v)", k, size, waiters, fail, dropsKey)

	loaded, shared := 0, 0
	for r := range results {
		switch r.how {
		case Loaded:
			loaded++
		case Shared:
			shared++
		}
		if fail != (r.err != nil) || (!fail && r.v.id != id) {
			h.failf("herd on %d: a caller got %+v, %v", k, r.v, r.err)
		}
	}
	if ran != 1 || loaded != 1 || shared != waiters {
		h.failf("herd on %d: load ran %d times, %d loaded, %d shared of %d waiters", k, ran, loaded, shared, waiters)
	}
	if !fail && !dropsKey {
		h.m.insert(k, size)
	}
	if _, ok := h.c.Get(k); ok {
		h.lookups++
		if dropsKey || fail {
			h.failf("key %d resident after its load was dropped in flight (or failed)", k)
		}
		h.m.touch(k)
	}
}

func (h *harness) dropIf(mod, rem int) int {
	match := func(k int) bool { return k%mod == rem }
	got, want := h.c.DropIf(match), h.m.dropIf(match)
	h.logf("DropIf(k %% %d == %d) = %d", mod, rem, got)
	if got != want {
		h.failf("DropIf removed %d, model %d", got, want)
	}
	return got
}

// purge is DropIf at its widest: everything resident goes.
func (h *harness) purge() { h.dropIf(1, 0) }

// TestModel is the generator: seeded op sequences over a small key space
// (so keys collide, evict each other, and get re-loaded), every invariant
// checked after every op. Run under -race it is also the concurrency test:
// each herd is real goroutines meeting in one flight.
func TestModel(t *testing.T) {
	ops := 1500
	if testing.Short() {
		ops = 300
	}
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const budget, keys = 1000, 24
			h := newHarness(t, budget)
			size := func() int64 { return int64(1 + rng.Intn(budget/4)) }
			for i := 0; i < ops; i++ {
				k := rng.Intn(keys)
				switch p := rng.Intn(100); {
				case p < 25:
					h.get(k)
				case p < 60:
					h.load(k, size(), false)
				case p < 66:
					h.load(k, size(), true)
				case p < 72:
					h.load(k, budget+1+int64(rng.Intn(budget)), false) // oversized: served, never cached
				case p < 78:
					h.herd(k, size(), 1+rng.Intn(4), rng.Intn(5) == 0, nil, false)
				case p < 84:
					// The in-flight key's own class is dropped mid-load (mod 1:
					// everything is).
					mod := 1 + rng.Intn(4)
					h.herd(k, size(), rng.Intn(4), false, func() { h.dropIf(mod, k%mod) }, true)
				case p < 87:
					// A DropIf of other keys mid-load changes the cache around
					// the flight but does not stop it landing.
					h.herd(k, size(), rng.Intn(3), false, func() { h.dropIf(keys, (k+1)%keys) }, false)
				case p < 97:
					mod := 1 + rng.Intn(5)
					h.dropIf(mod, rng.Intn(mod))
				default:
					h.purge()
				}
				h.check()
			}
			st := h.c.Stats()
			if st.Hits == 0 || st.Shared == 0 || st.Loads == 0 || st.Evictions == 0 || st.Dropped == 0 {
				t.Fatalf("sequence never exercised some outcome: %+v", st)
			}
		})
	}
}

// TestZeroBudgetCoalescesOnly: with no budget nothing is ever resident, yet
// concurrent loads of one key still run once.
func TestZeroBudgetCoalescesOnly(t *testing.T) {
	h := newHarness(t, 0)
	h.load(1, 10, false)
	h.check()
	h.herd(1, 10, 3, false, nil, false)
	h.check()
	h.load(1, 10, false)
	h.check()
	if st := h.c.Stats(); st.Entries != 0 || st.Used != 0 || st.Hits != 0 || st.Loads != 3 || st.Shared != 3 {
		t.Fatalf("zero-budget cache: %+v", st)
	}
}
