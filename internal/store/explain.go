package store

import (
	"fmt"
	"reflect"
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
// record streams' Irtl-Explain trailer, the serve plane's slow-query log
// and /v1/statz recent-queries, and `bgpstore query -explain`.
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
	BlocksV2          int    `json:"blocks_v2,omitempty"`
	BlocksV3          int    `json:"blocks_v3,omitempty"`
	RecordsScanned    int    `json:"records_scanned"` // records the scanned blocks hold
	// RecordsMaterialized is how many rows the columnar kernels selected;
	// RecordsScanned - RecordsMaterialized rows were filtered out at the
	// column level. A selected row becomes a record only when it is read.
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
	fmt.Fprintf(&sb, "blocks:   %d total, %d pruned, %d selected, %d scanned (%d v2, %d v3, %d quarantined)\n",
		e.BlocksTotal, e.BlocksPruned, e.BlocksSelected, e.BlocksScanned,
		e.BlocksV2, e.BlocksV3, e.BlocksQuarantined)
	fmt.Fprintf(&sb, "cache:    %d hit, %d miss\n", e.BlocksCacheHit, e.BlocksCacheMiss)
	fmt.Fprintf(&sb, "records:  %d scanned + %d memtable, %d materialized, %d matched\n",
		e.RecordsScanned, e.MemRecords, e.RecordsMaterialized, e.RecordsMatched)
	fmt.Fprintf(&sb, "bytes:    %d disk, %d decompressed, %d from cache",
		e.BytesReadDisk, e.BytesDecompressed, e.BytesFromCache)
	return sb.String()
}

// explainKeys are Explain's JSON names in field order. annotate writes each
// field to the span under its name, and a reader of the span decodes the
// attributes back through the same tags, so the two cannot drift.
var explainKeys = func() []string {
	t := reflect.TypeOf(Explain{})
	keys := make([]string, t.NumField())
	for i := range keys {
		keys[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return keys
}()

// annotate attaches every field of the profile to a trace span as an integer
// under its JSON name. Nil-safe.
func (e Explain) annotate(sp *obs.TraceSpan) {
	if sp == nil {
		return
	}
	v := reflect.ValueOf(e)
	for i, key := range explainKeys {
		if f := v.Field(i); f.CanInt() {
			sp.AnnotateInt(key, f.Int())
		} else {
			sp.AnnotateInt(key, int64(f.Uint()))
		}
	}
}
