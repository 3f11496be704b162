package store

import (
	"sort"
	"strconv"
	"strings"

	"instability/internal/bgp"
	"instability/internal/collector"
)

// AppendRecordWire appends the record encoding of rec to b: a forward to
// collector.AppendRecord, which the WAL and IRTL logs — the serving layer's
// IRTQ stream among them — all use. It stays only because the benchmark harness calls it.
func AppendRecordWire(b []byte, rec collector.Record) ([]byte, error) {
	return collector.AppendRecord(b, rec)
}

// Key returns a canonical string form of the query: equal queries (after
// list deduplication and ordering) map to equal keys regardless of how their
// predicates were spelled. Result caches use it, combined with the store
// generation, as the identity of a cached answer.
func (q Query) Key() string {
	var sb strings.Builder
	sb.WriteString("f=")
	if !q.From.IsZero() {
		sb.WriteString(strconv.FormatInt(q.From.UnixNano(), 10))
	}
	sb.WriteString(";t=")
	if !q.To.IsZero() {
		sb.WriteString(strconv.FormatInt(q.To.UnixNano(), 10))
	}
	sb.WriteString(";p=")
	writeASSet(&sb, q.PeerAS)
	sb.WriteString(";o=")
	writeASSet(&sb, q.OriginAS)
	sb.WriteString(";x=")
	if q.hasPrefix() {
		sb.WriteString(strconv.FormatUint(uint64(q.Prefix.Addr()), 10))
		sb.WriteByte('/')
		sb.WriteString(strconv.Itoa(q.Prefix.Bits()))
	}
	sb.WriteString(";y=")
	types := append([]collector.RecType(nil), q.Types...)
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for i, t := range types {
		if i > 0 && types[i-1] == t {
			continue
		}
		sb.WriteString(strconv.Itoa(int(t)))
		sb.WriteByte(',')
	}
	return sb.String()
}

func writeASSet(sb *strings.Builder, l []bgp.ASN) {
	s := append([]bgp.ASN(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, as := range s {
		if i > 0 && s[i-1] == as {
			continue
		}
		sb.WriteString(strconv.FormatUint(uint64(as), 10))
		sb.WriteByte(',')
	}
}
