package benchkit

import (
	"encoding/json"
	"slices"
)

// MetricDef names one metric. The tables below are the single source of the
// names: BENCHMARK.json is generated from them (`bgpbench manifest`) and
// TestBenchSmoke fails when the two drift apart.
type MetricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// WorkloadDef names one workload and records why it exists.
type WorkloadDef struct {
	Name string
	Why  string
}

// Workload names.
const (
	WAnalyze   = "analyze"
	WIngest    = "ingest"
	WQueryCold = "query-cold"
	WQueryWarm = "query-warm"
	WServe     = "serve"
	WLive      = "live"
	WMixed     = "mixed"
)

// Workloads lists the seven workloads `bgpbench` runs. Every loop is closed:
// a batch job, or callers that wait for each reply before sending the next.
var Workloads = []WorkloadDef{
	{WAnalyze, "Closed batch: campaign through Pipeline.Feed/EndDay + Detector. core+rib+detect+intern do all the work; store, serve, session idle. op = 4096 records."},
	{WIngest, "Closed batch, writes only: AppendBatch(256) over the campaign, Seal, Compact, Close. WAL, memtable, background seal, compaction; classifier idle, no reader. op = one AppendBatch."},
	{WQueryCold, "Closed loop, 1 client, reads only, block cache off: full+type scans and selective queries over all days. Every block is read, inflated, decoded; cache bypassed. op = one selective query."},
	{WQueryWarm, "Closed loop, 1 client, 32 MiB block cache, queries confined to a hot window that fits it. Columnar kernels, merge, cache lookup; inflate and disk bypassed. op = one selective query."},
	{WServe, "Closed loop, 2 serve.Clients on loopback: IRTQ streams, HTTP NDJSON, cached and uncached /v1/aggregate, statz. Same store as query-warm, so the difference is the serving plane. op = one request."},
	{WLive, "Closed loop, window 2048: session.Runner over loopback TCP into bgpcollect's callback (gz log + store.Append + classifier). Only path through bgp codec + session FSM. op = one 256-record group."},
	{WMixed, "1 appender (AppendBatch 256, auto-seal) beside 1 closed-loop reader on one store: lock hold, seal publish, memtable overlay, cache churn. op = one reader query; records/s is the appender's."},
}

// Gated names the workloads BENCHMARK.json lists, the ones the driver runs
// and holds a later PR to: the four that drive the program from one
// goroutine. serve, live and mixed keep two or three goroutines busy beside
// the store's background sealer on a host of two shared cores, so their
// figures are the scheduler's as much as the program's, and the driver
// refused a benchmark that gated them: over ten runs of the same code their
// rates and tails spread 17 to 31 % against a bound of 25 %. They stay in the
// ledger (`run.sh` alone, or `run.sh --workload serve`), where two sides can
// be interleaved run by run; nothing is gated on them. Four workloads also
// leave each run 20 s to measure in, where seven left 8.
var Gated = []string{WAnalyze, WIngest, WQueryCold, WQueryWarm}

// EndToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them, each with the workload's own operation (see
// Workloads), because the driver compares them per (metric, workload).
//
// ISSUE 13 set every bound at 0.10; that is not met. The driver accepts a
// bound only if ten same-code runs spread (quartile distance over median)
// less than it on every workload, and asks for a third of it. On the 2-vCPU
// VM this was written on, arithmetic repeats within 3 % but anything that
// misses the cache does not: a pointer chase over 64 MB takes 270 to 390 ms
// from one second to the next and its median drifts a tenth within the hour,
// with nothing else running. Ten 20-second runs of a gated workload spread 4
// to 12 % while the host holds still and up to 24 % while it drifts; two sets
// twenty minutes apart differ by up to 22 % in their medians. No run length
// the driver's budget allows averages that out, so each bound is the
// contract's ceiling; cmd/bgpbench/README.md has the measurements.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "rec/s", "higher", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"op_ms_p95", "ms", "lower", 0.25},
}

// PerLayer lists the metrics of single layers, read from the traced run. A
// workload that leaves a layer idle reports its metrics as 0.
var PerLayer = []MetricDef{
	// Demoted from the end-to-end list under their own names: no workload
	// but ingest/mixed appends, only store workloads have a footprint, and
	// failed_share is 0 by design — a metric there must never be 0.
	{"append_ms_p99", "ms", "lower", 0},
	{"bytes_per_record", "B/rec", "lower", 0},
	{"failed_share", "ratio", "lower", 0},
	// Also demoted: where the operations are a mix of shapes (the query
	// lists, the request list) the pooled median sits on the edge between
	// two shapes' clusters and jumps with the seed; ops_per_s carries the
	// typical latency there, as its inverse.
	{"op_ms_p50", "ms", "lower", 0},

	{"workload.generate_ns_per_record", "ns/rec", "lower", 0},

	{"core.classify_ns_per_record", "ns/rec", "lower", 0},
	{"core.accumulate_ns_per_record", "ns/rec", "lower", 0},
	{"core.endday_ms_p50", "ms", "lower", 0},
	{"core.alloc_bytes_per_record", "B/rec", "lower", 0},
	{"rib.update_ns_per_record", "ns/rec", "lower", 0},
	{"rib.census_ms_p50", "ms", "lower", 0},
	{"detect.add_ns_per_event", "ns/event", "lower", 0},
	{"detect.advance_ms_p50", "ms", "lower", 0},
	{"detect.alerts", "count", "lower", 0},
	{"intern.hit_share", "ratio", "higher", 0},
	{"intern.unique_attrs", "count", "lower", 0},

	{"session.send_ns_per_record", "ns/rec", "lower", 0},
	{"session.decode_ns_per_msg", "ns/msg", "lower", 0},
	{"session.records_per_msg", "rec/msg", "higher", 0},
	{"session.msgs", "count", "lower", 0},
	{"session.queue_drops", "count", "lower", 0},
	{"collector.callback_ns_per_record", "ns/rec", "lower", 0},
	{"collector.log_write_ns_per_record", "ns/rec", "lower", 0},
	{"collector.store_append_ns_per_record", "ns/rec", "lower", 0},
	{"collector.classify_ns_per_record", "ns/rec", "lower", 0},
	{"collector.delivered_share", "ratio", "higher", 0},

	{"store.append_ns_per_record", "ns/rec", "lower", 0},
	{"store.append_ms_p50", "ms", "lower", 0},
	{"store.append_ms_max", "ms", "lower", 0},
	{"store.wal_append_ns_per_record", "ns/rec", "lower", 0},
	{"store.seal_sort_ns_per_record", "ns/rec", "lower", 0},
	{"store.seal_write_ns_per_record", "ns/rec", "lower", 0},
	{"store.seal_publish_ms_max", "ms", "lower", 0},
	{"store.seal_stall_ms_max", "ms", "lower", 0},
	{"store.seal_wait_s", "s", "lower", 0},
	{"store.compact_ns_per_record", "ns/rec", "lower", 0},
	{"store.compact_rewrite_share", "ratio", "lower", 0},
	{"store.close_ms", "ms", "lower", 0},
	{"store.open_ms", "ms", "lower", 0},
	{"store.segments", "count", "lower", 0},
	{"store.blocks", "count", "lower", 0},
	{"store.dict_saved_share", "ratio", "higher", 0},
	{"store.write_amp", "ratio", "lower", 0},
	{"store.wal_bytes_per_record", "B/rec", "lower", 0},
	{"store.alloc_bytes_per_record", "B/rec", "lower", 0},

	{"store.query.open_us_p50", "us", "lower", 0},
	{"store.query.drain_ns_per_record", "ns/rec", "lower", 0},
	{"store.query.full_ms_p50", "ms", "lower", 0},
	{"store.query.type_ms_p50", "ms", "lower", 0},
	{"store.query.range_ms_p50", "ms", "lower", 0},
	{"store.query.origin_ms_p50", "ms", "lower", 0},
	{"store.query.prefix_ms_p50", "ms", "lower", 0},
	{"store.query.peer_ms_p50", "ms", "lower", 0},
	{"store.query.origin.block_scan_share", "ratio", "lower", 0},
	{"store.query.prefix.block_scan_share", "ratio", "lower", 0},
	{"store.query.peer.block_scan_share", "ratio", "lower", 0},
	{"store.query.scanned_per_matched", "ratio", "lower", 0},
	{"store.query.materialized_share", "ratio", "lower", 0},
	{"store.query.inflate_bytes_per_record", "B/rec", "lower", 0},
	{"store.query.disk_bytes_per_record", "B/rec", "lower", 0},
	{"store.query.alloc_bytes_per_record", "B/rec", "lower", 0},
	{"store.query.parallel_full_ms_p50", "ms", "lower", 0},
	{"store.query.mem_share", "ratio", "lower", 0},
	{"store.blockcache.hit_share", "ratio", "higher", 0},
	{"store.blockcache.evictions", "count", "lower", 0},
	{"store.blockcache.used_mb", "MB", "lower", 0},

	{"serve.irtq_ms_p50", "ms", "lower", 0},
	{"serve.http_records_ms_p50", "ms", "lower", 0},
	{"serve.agg_hit_us_p50", "us", "lower", 0},
	{"serve.agg_miss_ms_p50", "ms", "lower", 0},
	{"serve.statz_us_p50", "us", "lower", 0},
	{"serve.irtq_ns_per_record", "ns/rec", "lower", 0},
	{"serve.http_ns_per_record", "ns/rec", "lower", 0},
	{"serve.irtq_overhead_ns_per_record", "ns/rec", "lower", 0},
	{"serve.server_share", "ratio", "lower", 0},
	{"serve.cache.hit_share", "ratio", "higher", 0},
	{"serve.cache.evictions", "count", "lower", 0},
	{"serve.coalesced", "count", "higher", 0},
	{"serve.shed", "count", "lower", 0},

	// Of the run's own workload: layer self time over untraced wall, and
	// traced wall over untraced wall minus one.
	{"trace.coverage", "ratio", "higher", 0},
	{"obs.trace_overhead_share", "ratio", "lower", 0},
}

// DriverDays is the campaign length the BENCHMARK.json command runs at:
// half the paper's. The driver gives 3420 s to 4+22×4 runs and two builds,
// 36 s a run; at this length a run with set-up done once takes 24 to 33 s
// (the four: 110 s), at 214 days 45 to 110 s. `bgpbench` without -workload
// runs the full campaign.
const DriverDays = FullDays / 2

// DriverSeconds is run_seconds in BENCHMARK.json, the most that leaves the
// driver's budget a quarter to spare for the host's slow stretches.
const DriverSeconds = 20

// ManifestJSON renders BENCHMARK.json from the tables above.
func ManifestJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "cmd/bgpbench/run.sh"},
		Paths:      []string{"cmd/bgpbench", "internal/benchkit"},
		RunSeconds: DriverSeconds,
	}
	for _, w := range Workloads {
		if slices.Contains(Gated, w.Name) {
			doc.Workloads = append(doc.Workloads, wl(w))
		}
	}
	for _, m := range EndToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e(m))
	}
	for _, m := range PerLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
