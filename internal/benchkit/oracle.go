package benchkit

import (
	"slices"
	"time"

	"instability/internal/collector"
	"instability/internal/netaddr"
	"instability/internal/store"
)

// Answer identifies a query result without keeping it: how many records, and
// an order-independent hash of exactly which.
type Answer struct {
	Count int
	Hash  uint64
}

// Add folds one record hash in. Addition commutes, so two results holding
// the same multiset of records agree in any order.
func (a *Answer) Add(h uint64) {
	a.Count++
	a.Hash += h
}

// Hasher hashes records through the store's exported wire codec, so two
// records hash alike exactly when they encode alike.
type Hasher struct{ buf []byte }

// Record returns the hash of rec.
func (h *Hasher) Record(rec collector.Record) (uint64, error) {
	b, err := store.AppendRecordWire(h.buf[:0], rec)
	if err != nil {
		return 0, err
	}
	h.buf = b
	// FNV-1a, then a finalizer so that summing hashes does not cancel
	// structure shared by near-identical records.
	x := uint64(14695981039346656037)
	for _, c := range b {
		x = (x ^ uint64(c)) * 1099511628211
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x, nil
}

// Matches is the reference predicate: store.Query's documented semantics
// restated from scratch. All set predicates are ANDed; [From, To) is
// half-open; an origin predicate implies announcements only, since
// withdrawals and session events carry no path; the zero Prefix is no
// predicate. (Pointers only because both structs are large and the oracle
// calls this a hundred million times.)
func Matches(q *store.Query, rec *collector.Record) bool {
	if q.Prefix != (netaddr.Prefix{}) && rec.Prefix != q.Prefix {
		return false
	}
	if len(q.Types) > 0 && !slices.Contains(q.Types, rec.Type) {
		return false
	}
	if len(q.PeerAS) > 0 && !slices.Contains(q.PeerAS, rec.PeerAS) {
		return false
	}
	if !q.From.IsZero() && rec.Time.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && !rec.Time.Before(q.To) {
		return false
	}
	if len(q.OriginAS) > 0 {
		if rec.Type != collector.Announce {
			return false
		}
		origin, ok := rec.Attrs.Path.Origin()
		if !ok || !slices.Contains(q.OriginAS, origin) {
			return false
		}
	}
	return true
}

// Oracle answers queries by brute force over the in-memory campaign. Records
// are bucketed by the day of their timestamp only so that a time-bounded
// query need not visit the whole campaign; every visited record still goes
// through Matches in full.
type Oracle struct {
	recs   []collector.Record
	hashes []uint64
	start  time.Time
	byDay  [][]int32
	// All is the answer to the match-everything query.
	All Answer
	// WireBytes is the campaign's size in the store's wire encoding: the
	// user data that write amplification is stated against.
	WireBytes int64
}

// NewOracle hashes and buckets recs. start and days describe the campaign
// window; records outside it land in the first or last bucket.
func NewOracle(recs []collector.Record, start time.Time, days int) (*Oracle, error) {
	o := &Oracle{recs: recs, hashes: make([]uint64, len(recs)), start: start, byDay: make([][]int32, days)}
	var h Hasher
	for i, rec := range recs {
		x, err := h.Record(rec)
		if err != nil {
			return nil, err
		}
		o.hashes[i] = x
		o.WireBytes += int64(len(h.buf))
		o.All.Add(x)
		d := o.dayOf(rec.Time)
		o.byDay[d] = append(o.byDay[d], int32(i))
	}
	return o, nil
}

func (o *Oracle) dayOf(t time.Time) int {
	d := int(t.Sub(o.start) / (24 * time.Hour))
	if t.Before(o.start) {
		d = 0
	}
	return min(max(d, 0), len(o.byDay)-1)
}

// Answer evaluates q against every record whose day bucket its time range
// touches.
func (o *Oracle) Answer(q store.Query) Answer {
	lo, hi := 0, len(o.byDay)-1
	if !q.From.IsZero() {
		lo = o.dayOf(q.From)
	}
	if !q.To.IsZero() {
		hi = o.dayOf(q.To)
	}
	var a Answer
	for d := lo; d <= hi; d++ {
		for _, i := range o.byDay[d] {
			if Matches(&q, &o.recs[i]) {
				a.Add(o.hashes[i])
			}
		}
	}
	return a
}
