package store

import "instability/internal/obs"

// Store instrumentation, shared by every open store in the process. Ingest
// metrics cost one atomic op per record on the hot path; everything heavier
// (WAL group commits, seals, compactions, query pushdown totals) is
// recorded at batch boundaries.
var (
	obsAppends = obs.Default().Counter("irtl_store_append_records_total",
		"Records appended through store writers.")
	obsWALAppendSeconds = obs.Default().Histogram("irtl_store_wal_append_seconds",
		"WAL group-commit latency (one observation per flush).", nil)
	obsBatchRecords = obs.Default().Histogram("irtl_store_append_batch_records",
		"Records per AppendBatch call.",
		[]float64{1, 8, 32, 128, 512, 2048, 8192})
	obsWALBytes = obs.Default().Gauge("irtl_store_wal_bytes",
		"Current WAL size in bytes.")
	obsMemRecords = obs.Default().Gauge("irtl_store_mem_records",
		"Unsealed records in the memtable.")
	obsSegments = obs.Default().Gauge("irtl_store_segments",
		"Sealed segment files on disk.")

	obsSealSeconds = obs.Default().Histogram("irtl_store_seal_seconds",
		"Time to seal the memtable into segments (one observation per seal).", nil)
	obsSealedRecords = obs.Default().Counter("irtl_store_sealed_records_total",
		"Records written into sealed segments.")
	obsSealedSegments = obs.Default().Counter("irtl_store_sealed_segments_total",
		"Segments produced by seals.")
	obsSealActive = obs.Default().Gauge("irtl_store_seal_active",
		"Whether a seal batch is sealing in the background (0 or 1).")
	obsSealStallSeconds = obs.Default().Histogram("irtl_store_seal_stall_seconds",
		"Time an append parked on seal backpressure (an auto-seal cut with two batches already queued).", nil)
	obsSealSortSeconds = obs.Default().Histogram("irtl_store_seal_sort_seconds",
		"Time sorting one detached window's snapshot before block encoding.", nil)
	obsSealWriteSeconds = obs.Default().Histogram("irtl_store_seal_write_seconds",
		"Time encoding and writing one sealed segment.", nil)
	obsSealPublishSeconds = obs.Default().Histogram("irtl_store_seal_publish_seconds",
		"Store-lock hold time publishing one sealed segment (the only moment a seal blocks queries).", nil)

	obsCompactSeconds = obs.Default().Histogram("irtl_store_compact_seconds",
		"Compaction pass latency.", nil)
	obsCompactRecords = obs.Default().Counter("irtl_store_compact_records_total",
		"Records rewritten by compaction.")

	obsDictEntries = obs.Default().Counter("irtl_store_dict_entries_total",
		"Attribute dictionary entries written into segment blocks.")
	obsDictBytesSaved = obs.Default().Counter("irtl_store_dict_bytes_saved_total",
		"Bytes saved by per-block attribute dictionaries vs inline attributes.")

	obsQueries = obs.Default().Counter("irtl_store_queries_total",
		"Queries opened against stores.")
	obsQuerySegments = obs.Default().Counter("irtl_store_query_segments_total",
		"Segments present at query time (denominator of the segment skip ratio).")
	obsQuerySegmentsScanned = obs.Default().Counter("irtl_store_query_segments_scanned_total",
		"Segments not skipped by segment-level pruning.")
	obsQueryBlocks = obs.Default().Counter("irtl_store_query_blocks_total",
		"Blocks present at query time (denominator of the block skip ratio).")
	obsQueryBlocksScanned = obs.Default().Counter("irtl_store_query_blocks_scanned_total",
		"Blocks actually fetched and scanned by queries.")
	obsQueryRecordsScanned = obs.Default().Counter("irtl_store_query_records_scanned_total",
		"Records decoded from scanned blocks.")
	obsQueryRecordsMatched = obs.Default().Counter("irtl_store_query_records_matched_total",
		"Records that satisfied the full query predicate.")
	obsQueryBytesRead = obs.Default().Counter("irtl_store_query_bytes_read_total",
		"Stored segment bytes read from disk or mappings by queries.")
	obsQueryBytesDecompressed = obs.Default().Counter("irtl_store_query_bytes_decompressed_total",
		"Bytes query block fetches expanded before scanning (legacy blocks inflated; v3 timestamp columns).")
	obsQueryBytesFromCache = obs.Default().Counter("irtl_store_query_bytes_from_cache_total",
		"Block bytes served to queries from the shared block cache.")
	obsQueryRecordsMaterialized = obs.Default().Counter("irtl_store_query_records_materialized_total",
		"Rows selected by the columnar block kernels (rows surviving the column filters).")

	obsBlockCacheHits = obs.Default().Counter("irtl_store_blockcache_hits_total",
		"Block cache lookups served from a resident or in-flight entry.")
	obsBlockCacheMisses = obs.Default().Counter("irtl_store_blockcache_misses_total",
		"Block cache lookups that had to load from disk.")
	obsBlockCacheEvictions = obs.Default().Counter("irtl_store_blockcache_evictions_total",
		"Decoded blocks evicted from the cache under byte pressure.")
	obsBlockCacheBytes = obs.Default().Gauge("irtl_store_blockcache_bytes",
		"Decoded bytes resident in the shared block cache.")
	obsBlockCacheEntries = obs.Default().Gauge("irtl_store_blockcache_entries",
		"Decoded blocks resident in the shared block cache.")

	obsMmapSegments = obs.Default().Gauge("irtl_store_mmap_segments",
		"Sealed segments currently served through a memory mapping.")
	obsMmapFailures = obs.Default().Counter("irtl_store_mmap_failures_total",
		"Segment mapping attempts that fell back to the ReadAt path.")

	obsQuarantinedBlocks = obs.Default().Counter("irtl_store_quarantined_blocks",
		"Corrupt segment blocks skipped (quarantined) by queries instead of failing the scan.")
)

// publishExplain folds one finished query's pushdown accounting into the
// process counters, so skip ratios are visible live, not only per query.
func publishExplain(e *Explain) {
	obsQuerySegments.Add(int64(e.SegmentsTotal))
	obsQuerySegmentsScanned.Add(int64(e.SegmentsScanned))
	obsQueryBlocks.Add(int64(e.BlocksTotal))
	obsQueryBlocksScanned.Add(int64(e.BlocksScanned))
	obsQueryRecordsScanned.Add(int64(e.RecordsScanned + e.MemRecords))
	obsQueryRecordsMaterialized.Add(int64(e.RecordsMaterialized))
	obsQueryRecordsMatched.Add(int64(e.RecordsMatched))
	obsQueryBytesRead.Add(e.BytesReadDisk)
	obsQueryBytesDecompressed.Add(e.BytesDecompressed)
	obsQueryBytesFromCache.Add(e.BytesFromCache)
}
