package obs_test

import (
	"strings"
	"testing"
	"time"

	"instability/internal/obs"

	// Imported for their package-level metric registration side effects:
	// the names below are part of the operational interface (dashboards
	// and alerts key on them), so their existence is pinned here.
	_ "instability/internal/detect"
	_ "instability/internal/serve"
	_ "instability/internal/session"
	_ "instability/internal/store"
)

// TestMetricNamesPublished pins the externally visible metric names of the
// fault plane and degraded-mode paths. Renaming one of these silently breaks
// every dashboard and alert that watches it; this test makes the rename loud.
func TestMetricNamesPublished(t *testing.T) {
	// The runtime gauges register when the collector starts (obs.Serve does
	// this in production); start one against the default registry so the
	// names are pinned here too.
	stop := obs.StartRuntimeCollector(obs.Default(), time.Hour)
	defer stop()
	var sb strings.Builder
	if err := obs.Default().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exposition := sb.String()
	names := []string{
		// Degraded reads: corrupt sealed blocks skipped by queries.
		"irtl_store_quarantined_blocks",
		// Collector reconnect loops: dial attempts and chosen backoff.
		"irtl_session_redials_total",
		"irtl_session_backoff_seconds",
		// Pre-existing store and session families the tools already scrape.
		"irtl_store_append_records_total",
		"irtl_store_queries_total",
		"irtl_session_queue_drops_total",
		// Serving plane (bgpserve): admission, cache, batching, streaming.
		"irtl_serve_sessions",
		"irtl_serve_shed_total",
		"irtl_serve_cache_hits_total",
		"irtl_serve_cache_misses_total",
		"irtl_serve_cache_evictions_total",
		"irtl_serve_cache_bytes",
		"irtl_serve_coalesced_total",
		"irtl_serve_records_total",
		"irtl_serve_requests_total",
		"irtl_serve_request_seconds",
		// Observability plane: tracing retention and the slow-query log.
		"irtl_trace_traces_total",
		"irtl_trace_spans_total",
		"irtl_trace_kept_total",
		"irtl_trace_dropped_total",
		"irtl_serve_slow_queries_total",
		// Store EXPLAIN byte accounting.
		"irtl_store_query_bytes_read_total",
		"irtl_store_query_bytes_decompressed_total",
		"irtl_store_query_bytes_from_cache_total",
		"irtl_store_query_records_materialized_total",
		// Write path: background seal pipeline stages and backpressure.
		"irtl_store_seal_seconds",
		"irtl_store_seal_active",
		"irtl_store_seal_stall_seconds",
		"irtl_store_seal_sort_seconds",
		"irtl_store_seal_write_seconds",
		"irtl_store_seal_publish_seconds",
		// Read path: shared decompressed-block cache and segment mappings.
		"irtl_store_blockcache_hits_total",
		"irtl_store_blockcache_misses_total",
		"irtl_store_blockcache_evictions_total",
		"irtl_store_blockcache_bytes",
		"irtl_store_blockcache_entries",
		"irtl_store_mmap_segments",
		"irtl_store_mmap_failures_total",
		// Anomaly detector: event intake, window finalization, alerting.
		"irtl_detect_events_total",
		"irtl_detect_windows_total",
		"irtl_detect_active_alerts",
		"irtl_detect_keys",
		"irtl_detect_alerts_total",
		// Runtime gauges published by the background collector.
		"irtl_runtime_goroutines",
		"irtl_runtime_heap_bytes",
		"irtl_runtime_gomaxprocs",
		"irtl_runtime_gc_total",
		"irtl_runtime_gc_pause_seconds",
	}
	for _, name := range names {
		if !strings.Contains(exposition, "# TYPE "+name+" ") {
			t.Errorf("metric %q not registered on the default registry", name)
		}
	}
}
