package store

import (
	"fmt"
	"strings"

	"instability/internal/obs"
)

// Explain is the per-query EXPLAIN profile and the only account of what a
// query read: what the index pruned, what the scan actually read, and what
// came back — the attribution layer between "a query ran"
// (irtl_store_queries_total) and "this query was slow", and what makes
// predicate pushdown measurable: a filtered query over a multi-segment store
// should show BlocksScanned well below BlocksTotal. The streams note each
// block into it as they fetch it. It rides on the query's trace span, the
// IRTQ end frame, the serve plane's slow-query log and /v1/statz
// recent-queries, and `bgpstore query -explain`.
type Explain struct {
	Generation        uint64 `json:"generation"` // store generation at the snapshot
	SegmentsTotal     int    `json:"segments_total"`
	SegmentsScanned   int    `json:"segments_scanned"` // not skipped by segment-level pruning
	SegmentsPruned    int    `json:"segments_pruned"`
	BlocksTotal       int    `json:"blocks_total"`
	BlocksSelected    int    `json:"blocks_selected"` // candidates the per-block index kept
	BlocksPruned      int    `json:"blocks_pruned"`
	BlocksScanned     int    `json:"blocks_scanned"`               // fetched, from disk or cache
	BlocksCacheHit    int    `json:"blocks_cache_hit"`             // zero with the cache off
	BlocksCacheMiss   int    `json:"blocks_cache_miss"`            // zero with the cache off
	BlocksQuarantined int    `json:"blocks_quarantined,omitempty"` // corrupt, skipped: the result is partial
	BlocksV1          int    `json:"blocks_v1,omitempty"`
	BlocksV2          int    `json:"blocks_v2,omitempty"`
	BlocksV3          int    `json:"blocks_v3,omitempty"`
	RecordsScanned    int    `json:"records_scanned"` // records the scanned blocks hold
	// RecordsMaterialized is how many record structs the columnar kernels
	// actually built; RecordsScanned - RecordsMaterialized rows were filtered
	// out at the column level without ever becoming records.
	RecordsMaterialized int   `json:"records_materialized"`
	RecordsMatched      int   `json:"records_matched"`
	MemRecords          int   `json:"mem_records,omitempty"` // unsealed records considered
	BytesReadDisk       int64 `json:"bytes_read_disk"`       // stored bytes read from files or mappings
	// BytesDecompressed is what the fetches had to expand before they could
	// scan: the inflated size of a legacy block; of a v3 block only the
	// timestamp column (deltas to 8-byte values) — nothing is inflated, and
	// types and codes are scanned where they were read.
	BytesDecompressed int64 `json:"bytes_decompressed"`
	BytesFromCache    int64 `json:"bytes_from_cache"`
}

// Explain returns the query's EXPLAIN profile from the accounting gathered
// so far; final once the reader hits io.EOF (or is closed).
func (r *Reader) Explain() Explain {
	ex := r.ex
	ex.SegmentsPruned = ex.SegmentsTotal - ex.SegmentsScanned
	ex.BlocksPruned = ex.BlocksTotal - ex.BlocksSelected
	return ex
}

// String renders the profile for the CLI (`bgpstore query -explain`).
func (e Explain) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "generation %d\n", e.Generation)
	fmt.Fprintf(&sb, "segments: %d total, %d pruned, %d scanned\n",
		e.SegmentsTotal, e.SegmentsPruned, e.SegmentsScanned)
	fmt.Fprintf(&sb, "blocks:   %d total, %d pruned, %d selected, %d scanned (%d v1, %d v2, %d v3, %d quarantined)\n",
		e.BlocksTotal, e.BlocksPruned, e.BlocksSelected, e.BlocksScanned,
		e.BlocksV1, e.BlocksV2, e.BlocksV3, e.BlocksQuarantined)
	fmt.Fprintf(&sb, "cache:    %d hit, %d miss\n", e.BlocksCacheHit, e.BlocksCacheMiss)
	fmt.Fprintf(&sb, "records:  %d scanned + %d memtable, %d materialized, %d matched\n",
		e.RecordsScanned, e.MemRecords, e.RecordsMaterialized, e.RecordsMatched)
	fmt.Fprintf(&sb, "bytes:    %d disk, %d decompressed, %d from cache",
		e.BytesReadDisk, e.BytesDecompressed, e.BytesFromCache)
	return sb.String()
}

// annotate attaches the profile to a trace span. Nil-safe.
func (e Explain) annotate(sp *obs.TraceSpan) {
	if sp == nil {
		return
	}
	sp.AnnotateInt("generation", int64(e.Generation))
	sp.AnnotateInt("segments_total", int64(e.SegmentsTotal))
	sp.AnnotateInt("segments_pruned", int64(e.SegmentsPruned))
	sp.AnnotateInt("segments_scanned", int64(e.SegmentsScanned))
	sp.AnnotateInt("blocks_total", int64(e.BlocksTotal))
	sp.AnnotateInt("blocks_pruned", int64(e.BlocksPruned))
	sp.AnnotateInt("blocks_scanned", int64(e.BlocksScanned))
	sp.AnnotateInt("blocks_cache_hit", int64(e.BlocksCacheHit))
	sp.AnnotateInt("blocks_cache_miss", int64(e.BlocksCacheMiss))
	sp.AnnotateInt("blocks_quarantined", int64(e.BlocksQuarantined))
	sp.AnnotateInt("blocks_v1", int64(e.BlocksV1))
	sp.AnnotateInt("blocks_v2", int64(e.BlocksV2))
	sp.AnnotateInt("blocks_v3", int64(e.BlocksV3))
	sp.AnnotateInt("records_scanned", int64(e.RecordsScanned))
	sp.AnnotateInt("records_materialized", int64(e.RecordsMaterialized))
	sp.AnnotateInt("records_matched", int64(e.RecordsMatched))
	sp.AnnotateInt("mem_records", int64(e.MemRecords))
	sp.AnnotateInt("bytes_read_disk", e.BytesReadDisk)
	sp.AnnotateInt("bytes_decompressed", e.BytesDecompressed)
	sp.AnnotateInt("bytes_from_cache", e.BytesFromCache)
}
