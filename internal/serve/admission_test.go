package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"instability/internal/lru"
)

func TestParseQuotas(t *testing.T) {
	quotas, def, err := ParseQuotas("dashboards=50:100,batch=2:10,*=5:5")
	if err != nil {
		t.Fatal(err)
	}
	if q := quotas["dashboards"]; q.Rate != 50 || q.Burst != 100 {
		t.Fatalf("dashboards quota = %+v", q)
	}
	if q := quotas["batch"]; q.Rate != 2 || q.Burst != 10 {
		t.Fatalf("batch quota = %+v", q)
	}
	if def.Rate != 5 || def.Burst != 5 {
		t.Fatalf("default quota = %+v", def)
	}
	if _, _, err := ParseQuotas(""); err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	for _, bad := range []string{"x", "x=1", "x=0:5", "x=1:0", "x=a:b", "=1:2"} {
		if _, _, err := ParseQuotas(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// TestAdmissionQuota drives the token bucket with a fake clock: burst is
// consumable immediately, then requests shed until the refill.
func TestAdmissionQuota(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	a := newAdmission(8, 8, time.Second, map[string]Quota{"t": {Rate: 1, Burst: 2}}, Quota{}, now)
	closed := make(chan struct{})

	for i := 0; i < 2; i++ {
		release, err := a.admit("t", closed)
		if err != nil {
			t.Fatalf("burst request %d shed: %v", i, err)
		}
		release()
	}
	if _, err := a.admit("t", closed); !errors.Is(err, ErrQuota) {
		t.Fatalf("dry bucket admitted (err = %v)", err)
	}
	clock = clock.Add(time.Second) // refill one token
	release, err := a.admit("t", closed)
	if err != nil {
		t.Fatalf("post-refill request shed: %v", err)
	}
	release()

	// Unknown tokens use the (here unlimited) default quota.
	release, err = a.admit("stranger", closed)
	if err != nil {
		t.Fatalf("unlimited tenant shed: %v", err)
	}
	release()
}

// TestAdmissionQueueShed fills the worker pool and the queue: the next
// request is shed immediately, not hung.
func TestAdmissionQueueShed(t *testing.T) {
	a := newAdmission(1, 1, 50*time.Millisecond, nil, Quota{}, nil)
	closed := make(chan struct{})

	release, err := a.admit("", closed)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.active.Load(); got != 1 {
		t.Fatalf("active = %d, want 1", got)
	}

	// One waiter may queue (it will time out); launch it and give it time to
	// enter the queue.
	queuedErr := make(chan error, 1)
	go func() {
		_, err := a.admit("", closed)
		queuedErr <- err
	}()
	waitFor(t, func() bool { return a.queued.Load() == 1 })

	// The queue is full: this request is shed with no waiting.
	t0 := time.Now()
	if _, err := a.admit("", closed); !errors.Is(err, ErrBusy) {
		t.Fatalf("over-queue request not shed (err = %v)", err)
	}
	if d := time.Since(t0); d > 40*time.Millisecond {
		t.Fatalf("queue-full shed took %v, want immediate", d)
	}
	// The queued waiter times out and sheds too.
	if err := <-queuedErr; !errors.Is(err, ErrBusy) {
		t.Fatalf("queued waiter error = %v, want ErrBusy", err)
	}

	// Releasing the slot (idempotently) frees it for the next request.
	release()
	release()
	r2, err := a.admit("", closed)
	if err != nil {
		t.Fatalf("post-release request shed: %v", err)
	}
	r2()
	if got := a.active.Load(); got != 0 {
		t.Fatalf("active = %d after releases, want 0", got)
	}
}

func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 2s")
		}
		time.Sleep(time.Millisecond)
	}
}

// cachePut stores body under key the way a computed aggregate lands in the
// cache: as the result of a load.
func cachePut(t *testing.T, c *resultCache, key string, body []byte) {
	t.Helper()
	if _, _, err := c.getOrLoad(key, func() ([]byte, error) { return body, nil }); err != nil {
		t.Fatal(err)
	}
}

// TestResultCache pins the LRU budget and the generation sweep.
func TestResultCache(t *testing.T) {
	entry := func(i int) (string, []byte) {
		return genPrefix(1) + fmt.Sprintf("key-%02d", i), make([]byte, 100)
	}
	perEntry := int64(len(genPrefix(1)+"key-00")+100) + cacheEntryOverhead
	c := newResultCache(3 * perEntry)
	key := func(i int) string { k, _ := entry(i); return k }

	for i := 0; i < 3; i++ {
		k, b := entry(i)
		cachePut(t, c, k, b)
	}
	if _, ok := c.get(key(0)); !ok {
		t.Fatal("key-00 missing before budget exceeded")
	}
	// A fourth entry evicts the LRU — key-01, since key-00 was just touched.
	k, b := entry(3)
	cachePut(t, c, k, b)
	if _, ok := c.get(key(1)); ok {
		t.Fatal("LRU entry survived over-budget put")
	}
	if _, ok := c.get(key(0)); !ok {
		t.Fatal("recently used entry evicted")
	}

	// Oversized bodies are refused, not cached.
	cachePut(t, c, genPrefix(1)+"huge", make([]byte, 10_000))
	if _, ok := c.get(genPrefix(1) + "huge"); ok {
		t.Fatal("over-budget body cached")
	}

	// Generation sweep: entries from other generations vanish.
	cachePut(t, c, genPrefix(2)+"new-gen", []byte("x"))
	c.dropOldGens(2)
	for _, i := range []int{0, 2, 3} {
		if _, ok := c.get(key(i)); ok {
			t.Fatalf("stale-generation entry %q survived sweep", key(i))
		}
	}
	if _, ok := c.get(genPrefix(2) + "new-gen"); !ok {
		t.Fatal("current-generation entry swept")
	}
	hits, misses, evictions, size := c.counts()
	if hits == 0 || misses == 0 || evictions < 4 || size <= 0 {
		t.Fatalf("counts = hits %d, misses %d, evictions %d, size %d", hits, misses, evictions, size)
	}
	// Generation 1's number is a prefix of generation 12's, its key prefix
	// is not.
	cachePut(t, c, genPrefix(12)+"later", []byte("x"))
	c.dropOldGens(1)
	if _, ok := c.get(genPrefix(12) + "later"); ok {
		t.Fatal("generation 12 entry survived a sweep to generation 1")
	}

	// The zero-budget cache (disabled) absorbs everything quietly.
	nc := newResultCache(0)
	cachePut(t, nc, genPrefix(1)+"k", []byte("v"))
	if _, ok := nc.get(genPrefix(1) + "k"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	nc.dropOldGens(1)
}

// TestFlightGroup proves concurrent identical computations coalesce into
// one, with caching itself disabled: a zero budget leaves only the
// coalescing.
func TestFlightGroup(t *testing.T) {
	g := newResultCache(0)
	var calls int
	started := make(chan struct{})
	proceed := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	shares := make(chan bool, waiters+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, how, err := g.getOrLoad("k", func() ([]byte, error) {
			calls++
			close(started)
			<-proceed
			return []byte("answer"), nil
		})
		if err != nil || string(body) != "answer" {
			t.Errorf("leader: body %q err %v", body, err)
		}
		shares <- how == lru.Shared
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, how, err := g.getOrLoad("k", func() ([]byte, error) {
				t.Error("duplicate computation ran")
				return nil, nil
			})
			if err != nil || string(body) != "answer" {
				t.Errorf("follower: body %q err %v", body, err)
			}
			shares <- how == lru.Shared
		}()
	}
	// Followers must have joined the flight before the leader finishes: each
	// is counted as it joins.
	waitFor(t, func() bool { return g.lru.Stats().Shared == waiters })
	close(proceed)
	wg.Wait()
	close(shares)

	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	sharedCount := 0
	for s := range shares {
		if s {
			sharedCount++
		}
	}
	if sharedCount != waiters {
		t.Fatalf("%d callers reported a shared result, want %d", sharedCount, waiters)
	}

	// After completion the key is free again: a new call recomputes.
	body, how, err := g.getOrLoad("k", func() ([]byte, error) { return []byte("fresh"), nil })
	if err != nil || how != lru.Loaded || string(body) != "fresh" {
		t.Fatalf("post-flight call: body %q outcome %v err %v", body, how, err)
	}
}
