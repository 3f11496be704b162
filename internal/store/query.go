package store

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
)

// Query selects records from the store. The zero value matches everything.
// All set predicates are ANDed.
type Query struct {
	// From and To bound the half-open time range [From, To). A zero time
	// leaves that side unbounded.
	From, To time.Time
	// PeerAS restricts to records heard from any of these peers.
	PeerAS []bgp.ASN
	// OriginAS restricts to announcements whose AS path originates at any
	// of these ASes. Setting it implies Announce-only: withdrawals and
	// session events carry no origin.
	OriginAS []bgp.ASN
	// Prefix restricts to records for exactly this prefix. The zero Prefix
	// means no prefix predicate, so an exact query for a /0 is not
	// expressible (no analysis needs one); ParseQuery rejects it.
	Prefix netaddr.Prefix
	// Types restricts to these record types.
	Types []collector.RecType
}

func (q *Query) hasPrefix() bool { return q.Prefix != netaddr.Prefix{} }

// The instants a nanosecond timestamp can hold: the years 1678–2262.
var minNsTime, maxNsTime = time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)

// nsBounds is the query's window as the closed range [first, last] of unix
// nanoseconds that segments, blocks and the kernels compare timestamps with.
// A bound outside the years 1678–2262 saturates where UnixNano would wrap.
func (q *Query) nsBounds() (first, last int64) {
	if q.From.After(maxNsTime) || !q.To.IsZero() && !q.To.After(minNsTime) {
		return math.MaxInt64, math.MinInt64 // no timestamp can match
	}
	first, last = math.MinInt64, math.MaxInt64
	if q.From.After(minNsTime) { // as the zero From is not
		first = q.From.UnixNano()
	}
	if !q.To.IsZero() && !q.To.After(maxNsTime) {
		last = q.To.UnixNano() - 1
	}
	return first, last
}

// Matches is the record-level predicate: a log read through the query applies
// it to every record, and the store to its unsealed ones. It is also the
// oracle of the sealed path, whose columnar kernels (selectRows) evaluate the
// same predicate on codes and are held to it row for row, so every path gives
// the same answer.
func (q *Query) Matches(rec *collector.Record) bool {
	if !q.From.IsZero() && rec.Time.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && !rec.Time.Before(q.To) {
		return false
	}
	if len(q.Types) > 0 && !containsType(q.Types, rec.Type) {
		return false
	}
	if len(q.PeerAS) > 0 && !containsASN(q.PeerAS, rec.PeerAS) {
		return false
	}
	if len(q.OriginAS) > 0 {
		if rec.Type != collector.Announce {
			return false
		}
		origin, ok := rec.Attrs.Path.Origin()
		if !ok || !containsASN(q.OriginAS, origin) {
			return false
		}
	}
	if q.hasPrefix() && rec.Prefix != q.Prefix {
		return false
	}
	return true
}

func containsASN(l []bgp.ASN, as bgp.ASN) bool {
	for _, v := range l {
		if v == as {
			return true
		}
	}
	return false
}

func containsType(l []collector.RecType, t collector.RecType) bool {
	for _, v := range l {
		if v == t {
			return true
		}
	}
	return false
}

// ParseQuery builds a Query from the CLI flag spellings shared by every tool
// that selects records: RFC 3339 or "2006-01-02[ 15:04[:05]]" times,
// comma-separated AS lists, a prefix in CIDR form, and comma-separated type
// names (A, W, UP, DOWN). Empty strings leave the predicate unset; a
// non-empty one that would parse to the unset value — a /0 prefix, or a time
// outside the years 1678–2262 that scans compare in nanoseconds — is an
// error, not a silently wider query.
func ParseQuery(from, to, peers, origins, prefix, types string) (Query, error) {
	var q Query
	var err error
	if q.From, err = parseTime(from); err != nil {
		return q, fmt.Errorf("store: bad -from: %v", err)
	}
	if q.To, err = parseTime(to); err != nil {
		return q, fmt.Errorf("store: bad -to: %v", err)
	}
	if q.PeerAS, err = parseASList(peers); err != nil {
		return q, fmt.Errorf("store: bad -peer: %v", err)
	}
	if q.OriginAS, err = parseASList(origins); err != nil {
		return q, fmt.Errorf("store: bad -origin: %v", err)
	}
	if prefix != "" {
		if q.Prefix, err = netaddr.ParsePrefix(prefix); err != nil {
			return q, fmt.Errorf("store: bad -prefix: %v", err)
		}
		if !q.hasPrefix() {
			return q, fmt.Errorf("store: bad -prefix %q: a /0 is not an exact-prefix predicate (leave -prefix unset to match every prefix)", prefix)
		}
	}
	if types != "" {
		for _, s := range strings.Split(types, ",") {
			switch strings.ToUpper(strings.TrimSpace(s)) {
			case "A", "ANNOUNCE":
				q.Types = append(q.Types, collector.Announce)
			case "W", "WITHDRAW":
				q.Types = append(q.Types, collector.Withdraw)
			case "UP":
				q.Types = append(q.Types, collector.SessionUp)
			case "DOWN":
				q.Types = append(q.Types, collector.SessionDown)
			default:
				return q, fmt.Errorf("store: bad -type %q (want A, W, UP, DOWN)", s)
			}
		}
	}
	return q, nil
}

func parseTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	for _, layout := range []string{time.RFC3339, "2006-01-02 15:04:05", "2006-01-02 15:04", "2006-01-02"} {
		if t, err := time.Parse(layout, s); err == nil {
			if !time.Unix(0, t.UnixNano()).Equal(t) {
				return time.Time{}, fmt.Errorf("time %q outside the years 1678–2262", s)
			}
			return t.UTC(), nil
		}
	}
	return time.Time{}, fmt.Errorf("unrecognized time %q", s)
}

func parseASList(s string) ([]bgp.ASN, error) {
	if s == "" {
		return nil, nil
	}
	var out []bgp.ASN
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad AS %q", part)
		}
		out = append(out, bgp.ASN(v))
	}
	return out, nil
}
