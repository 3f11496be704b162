package serve

import "instability/internal/obs"

// Serving-plane instrumentation. The admission, cache, and batching stages
// each expose their behavior as process metrics so an operator can see — per
// scrape, not per incident — how much load was admitted, shed, coalesced, or
// answered from memory. Per-tenant series are created only for tenants named
// in the quota table; unknown tokens share the "other" series so an
// adversarial client cannot mint unbounded label cardinality.
var (
	obsSessions = obs.Default().Gauge("irtl_serve_sessions",
		"Reader sessions currently admitted (holding a worker slot).")
	obsShedQueue = obs.Default().Counter("irtl_serve_shed_total",
		"Requests shed by admission control.", obs.L("reason", "queue_full"))
	obsShedQuota = obs.Default().Counter("irtl_serve_shed_total",
		"Requests shed by admission control.", obs.L("reason", "quota"))
	obsShedShutdown = obs.Default().Counter("irtl_serve_shed_total",
		"Requests shed by admission control.", obs.L("reason", "shutdown"))

	obsCacheHits = obs.Default().Counter("irtl_serve_cache_hits_total",
		"Aggregate queries answered from the result cache.")
	obsCacheMisses = obs.Default().Counter("irtl_serve_cache_misses_total",
		"Aggregate queries that had to run against the store.")
	obsCacheEvictions = obs.Default().Counter("irtl_serve_cache_evictions_total",
		"Result-cache entries evicted (size budget or generation change).")
	obsCacheBytes = obs.Default().Gauge("irtl_serve_cache_bytes",
		"Bytes currently held by the result cache.")

	obsCoalesced = obs.Default().Counter("irtl_serve_coalesced_total",
		"Aggregate queries coalesced onto an identical in-flight computation.")
	obsRecordsStreamed = obs.Default().Counter("irtl_serve_records_total",
		"Records streamed to remote readers in either encoding.")
	obsSlowQueries = obs.Default().Counter("irtl_serve_slow_queries_total",
		"Requests over the slow-query threshold (one NDJSON profile line each).")
)

// tenantLabel maps a token to its metrics label: named tenants get their own
// series, everything else shares one.
func tenantLabel(known map[string]Quota, token string) string {
	if _, ok := known[token]; ok {
		return token
	}
	return "other"
}

// requestMetrics returns the per-tenant request counter and latency
// histogram for one (tenant, proto) pair, get-or-create. proto names the
// response encoding: "binary" for IRTQ, "http" for everything else.
func requestMetrics(tenant, proto string) (*obs.Counter, *obs.Histogram) {
	c := obs.Default().Counter("irtl_serve_requests_total",
		"Requests received, by tenant and protocol.",
		obs.L("tenant", tenant), obs.L("proto", proto))
	h := obs.Default().Histogram("irtl_serve_request_seconds",
		"Request latency from admission to last byte, by tenant.",
		nil, obs.L("tenant", tenant))
	return c, h
}

func init() {
	// Pin the per-tenant families so the exposition names exist from process
	// start (the obs golden-name test and dashboards rely on them) even
	// before the first request arrives.
	requestMetrics("other", "http")
	requestMetrics("other", "binary")
}
