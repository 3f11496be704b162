package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Shed errors. Both mean "try again later", but they are distinguishable:
// ErrBusy is the server protecting itself (worker pool and queue full),
// ErrQuota is the tenant exceeding its own allowance while the server may be
// otherwise idle.
var (
	ErrBusy  = errors.New("serve: overloaded, request shed")
	ErrQuota = errors.New("serve: tenant quota exceeded")
)

// Quota is a per-tenant token bucket: Rate tokens per second, holding at
// most Burst. The zero Quota is unlimited.
type Quota struct {
	Rate  float64
	Burst float64
}

func (q Quota) unlimited() bool { return q.Rate <= 0 && q.Burst <= 0 }

// ParseQuotas parses the -tenant-quotas CLI spelling: a comma-separated list
// of tenant=rate:burst entries, where the tenant "*" sets the default quota
// applied to tokens not named in the list, e.g.
//
//	dashboards=50:100,batch=2:10,*=5:5
//
// Rates must be finite and positive, bursts finite and at least 1. An empty
// spec means no quotas: every tenant is unlimited.
func ParseQuotas(spec string) (map[string]Quota, Quota, error) {
	quotas := make(map[string]Quota)
	var def Quota
	if strings.TrimSpace(spec) == "" {
		return quotas, def, nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, def, fmt.Errorf("serve: bad quota %q (want tenant=rate:burst)", part)
		}
		rs, bs, ok := strings.Cut(val, ":")
		if !ok {
			return nil, def, fmt.Errorf("serve: bad quota %q (want tenant=rate:burst)", part)
		}
		// Negated comparisons, so a NaN fails them too.
		rate, err := strconv.ParseFloat(rs, 64)
		if err != nil || !(rate > 0) || math.IsInf(rate, 0) {
			return nil, def, fmt.Errorf("serve: bad quota rate in %q", part)
		}
		burst, err := strconv.ParseFloat(bs, 64)
		if err != nil || !(burst >= 1) || math.IsInf(burst, 0) {
			return nil, def, fmt.Errorf("serve: bad quota burst in %q", part)
		}
		q := Quota{Rate: rate, Burst: burst}
		if name == "*" {
			def = q
		} else {
			quotas[name] = q
		}
	}
	return quotas, def, nil
}

// String renders the quota table back into the CLI spelling, sorted for
// deterministic display.
func quotasString(quotas map[string]Quota, def Quota) string {
	names := make([]string, 0, len(quotas))
	for n := range quotas {
		names = append(names, n)
	}
	sort.Strings(names)
	var parts []string
	for _, n := range names {
		q := quotas[n]
		parts = append(parts, fmt.Sprintf("%s=%g:%g", n, q.Rate, q.Burst))
	}
	if !def.unlimited() {
		parts = append(parts, fmt.Sprintf("*=%g:%g", def.Rate, def.Burst))
	}
	if len(parts) == 0 {
		return "unlimited"
	}
	return strings.Join(parts, ",")
}

// bucket is one tenant's token bucket, lazily refilled on take.
type bucket struct {
	tokens float64
	last   time.Time
}

// admission is the front door: a bounded worker pool (slots), a bounded wait
// queue in front of it, and per-tenant token buckets. A request is admitted
// when it holds both a token and a slot; it is shed immediately — never
// hung — when the queue is full, the wait times out, or its tenant bucket is
// empty.
type admission struct {
	slots     chan struct{}
	maxQueue  int64
	queueWait time.Duration
	queued    atomic.Int64
	active    atomic.Int64

	mu      sync.Mutex
	now     func() time.Time
	quotas  map[string]Quota
	def     Quota
	buckets map[string]*bucket
}

func newAdmission(maxSessions, maxQueue int, queueWait time.Duration, quotas map[string]Quota, def Quota, now func() time.Time) *admission {
	if maxSessions < 1 {
		maxSessions = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	if queueWait <= 0 {
		queueWait = 2 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	if quotas == nil {
		quotas = make(map[string]Quota)
	}
	return &admission{
		slots:     make(chan struct{}, maxSessions),
		maxQueue:  int64(maxQueue),
		queueWait: queueWait,
		now:       now,
		quotas:    quotas,
		def:       def,
		buckets:   make(map[string]*bucket),
	}
}

// queueDepth reports requests currently waiting for a worker slot (trace
// annotation and statz).
func (a *admission) queueDepth() int64 { return a.queued.Load() }

// quotaFor returns the quota applied to a token.
func (a *admission) quotaFor(token string) Quota {
	if q, ok := a.quotas[token]; ok {
		return q
	}
	return a.def
}

// takeToken draws one token from the tenant's bucket, refilling it by the
// time elapsed since the last draw. It reports false when the bucket is dry.
func (a *admission) takeToken(token string) bool {
	q := a.quotaFor(token)
	if q.unlimited() {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[token]
	now := a.now()
	if b == nil {
		b = &bucket{tokens: q.Burst, last: now}
		a.buckets[token] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * q.Rate
		if b.tokens > q.Burst {
			b.tokens = q.Burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// admit gates one request: quota first (cheap, per-tenant), then a worker
// slot, queueing up to maxQueue waiters for at most queueWait. On success it
// returns a release func that must be called exactly once.
func (a *admission) admit(token string, closed <-chan struct{}) (release func(), err error) {
	if !a.takeToken(token) {
		obsShedQuota.Inc()
		return nil, ErrQuota
	}
	grant := func() func() {
		a.active.Add(1)
		obsSessions.Inc()
		var once sync.Once
		return func() {
			once.Do(func() {
				<-a.slots
				a.active.Add(-1)
				obsSessions.Dec()
			})
		}
	}
	// Fast path: a free slot, no queueing.
	select {
	case a.slots <- struct{}{}:
		return grant(), nil
	default:
	}
	// Queue-depth shed: beyond maxQueue waiters the server is past the point
	// where waiting helps anyone; fail fast instead of building a convoy.
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		obsShedQueue.Inc()
		return nil, ErrBusy
	}
	defer a.queued.Add(-1)
	t := time.NewTimer(a.queueWait)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		return grant(), nil
	case <-t.C:
		obsShedQueue.Inc()
		return nil, ErrBusy
	case <-closed:
		obsShedShutdown.Inc()
		return nil, ErrBusy
	}
}
