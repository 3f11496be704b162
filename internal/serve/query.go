package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"instability"
	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/netaddr"
	"instability/internal/store"
)

// QuerySpec is the transport form of a store query: the exact CLI spellings
// the analysis tools already use (-from/-to/-peer/-origin/-prefix/-type), so
// a remote query parses — and therefore matches — identically to a local
// one. Limit bounds record streams; it does not apply to aggregates.
type QuerySpec struct {
	From   string `json:"from,omitempty"`
	To     string `json:"to,omitempty"`
	Peer   string `json:"peer,omitempty"`
	Origin string `json:"origin,omitempty"`
	Prefix string `json:"prefix,omitempty"`
	Type   string `json:"type,omitempty"`
	Limit  int    `json:"limit,omitempty"`
}

// Parse resolves the spec into a store query.
func (qs QuerySpec) Parse() (store.Query, error) {
	return store.ParseQuery(qs.From, qs.To, qs.Peer, qs.Origin, qs.Prefix, qs.Type)
}

// param is one of a spec's query fields under its name, which is both the
// CLI flag's and the URL parameter's.
type param struct {
	name string
	v    *string
}

func (qs *QuerySpec) params() []param {
	return []param{{"from", &qs.From}, {"to", &qs.To}, {"peer", &qs.Peer}, {"origin", &qs.Origin}, {"prefix", &qs.Prefix}, {"type", &qs.Type}}
}

// String renders the spec in the CLI flag spelling, for slow-query log lines
// and trace annotations. The zero spec renders as "all".
func (qs QuerySpec) String() string {
	var parts []string
	for _, p := range qs.params() {
		if *p.v != "" {
			parts = append(parts, p.name+"="+*p.v)
		}
	}
	if qs.Limit > 0 {
		parts = append(parts, "limit="+strconv.Itoa(qs.Limit))
	}
	if len(parts) == 0 {
		return "all"
	}
	return strings.Join(parts, " ")
}

// RecordJSON is the lossless JSON form of a collector record used by the
// HTTP streaming endpoint: numeric fields stay numeric (no string parsing on
// either side) and path attributes travel as the BGP wire encoding, so a
// record round-trips bit-identically through either encoding.
type RecordJSON struct {
	T        int64  `json:"t"` // UnixNano
	Type     string `json:"type"`
	PeerAS   uint16 `json:"peer_as"`
	PeerAddr uint32 `json:"peer_addr,omitempty"`
	PfxAddr  uint32 `json:"pfx_addr"`
	PfxBits  int    `json:"pfx_bits"`
	Attrs    []byte `json:"attrs,omitempty"` // bgp.MarshalAttrs, base64 in JSON
}

// ToJSON converts a record to its JSON transport form.
func ToJSON(rec collector.Record) (RecordJSON, error) {
	rj := RecordJSON{
		T:        rec.Time.UnixNano(),
		Type:     rec.Type.String(),
		PeerAS:   uint16(rec.PeerAS),
		PeerAddr: uint32(rec.PeerAddr),
		PfxAddr:  uint32(rec.Prefix.Addr()),
		PfxBits:  rec.Prefix.Bits(),
	}
	if rec.Type == collector.Announce {
		attrs, err := bgp.MarshalAttrs(rec.Attrs)
		if err != nil {
			return rj, err
		}
		rj.Attrs = attrs
	}
	return rj, nil
}

// Record converts the JSON transport form back to a collector record.
func (rj RecordJSON) Record() (collector.Record, error) {
	var rec collector.Record
	switch rj.Type {
	case "A":
		rec.Type = collector.Announce
	case "W":
		rec.Type = collector.Withdraw
	case "UP":
		rec.Type = collector.SessionUp
	case "DOWN":
		rec.Type = collector.SessionDown
	default:
		return rec, fmt.Errorf("serve: bad record type %q", rj.Type)
	}
	rec.Time = nanoTime(rj.T)
	rec.PeerAS = bgp.ASN(rj.PeerAS)
	rec.PeerAddr = netaddr.Addr(rj.PeerAddr)
	p, err := netaddr.PrefixFrom(netaddr.Addr(rj.PfxAddr), rj.PfxBits)
	if err != nil {
		return rec, err
	}
	rec.Prefix = p
	if len(rj.Attrs) > 0 {
		if rec.Attrs, err = bgp.UnmarshalAttrs(rj.Attrs); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

// Aggregate kinds: the dashboard queries the cache exists for.
const (
	// KindClasses is the taxonomy breakdown of the slice (paper Table/Fig
	// totals): per-class counts plus the instability/pathological split.
	KindClasses = "classes"
	// KindDaily is the per-day per-class totals (Figure 2's series).
	KindDaily = "daily"
	// KindTopOrigins ranks origin ASes by announcements in the slice
	// (the paper's "small number of ASes dominate" result).
	KindTopOrigins = "top_origins"
	// KindPeerMatrix is the per-peer class density matrix (Table 1's rows):
	// for each peer AS seen, its per-class counts and announce/withdraw
	// split.
	KindPeerMatrix = "peer_matrix"
)

// Kinds lists the supported aggregate kinds.
func Kinds() []string {
	return []string{KindClasses, KindDaily, KindTopOrigins, KindPeerMatrix}
}

// Aggregate is the answer to one aggregate query. Exactly one of the
// kind-specific fields is populated.
type Aggregate struct {
	Kind       string `json:"kind"`
	Generation uint64 `json:"generation"`
	Records    int    `json:"records"`

	Classes    map[string]int `json:"classes,omitempty"`
	Daily      []DayClasses   `json:"daily,omitempty"`
	TopOrigins []OriginCount  `json:"top_origins,omitempty"`
	PeerMatrix []PeerClasses  `json:"peer_matrix,omitempty"`
}

// DayClasses is one day's class totals.
type DayClasses struct {
	Date    string         `json:"date"`
	Classes map[string]int `json:"classes"`
}

// OriginCount is one origin AS's announcement count.
type OriginCount struct {
	AS        uint16 `json:"as"`
	Announces int    `json:"announces"`
}

// PeerClasses is one peer's row of the density matrix.
type PeerClasses struct {
	AS          uint16         `json:"as"`
	Addr        uint32         `json:"addr"`
	Classes     map[string]int `json:"classes"`
	Announces   int            `json:"announces"`
	Withdrawals int            `json:"withdrawals"`
}

// computeAggregate drains the reader into the requested aggregate. The
// classifier-backed kinds run the exact pipeline the CLIs use, so a cached
// dashboard answer is the same number bgpanalyze would print.
func computeAggregate(r collector.RecordReader, kind string, top int) (*Aggregate, error) {
	agg := &Aggregate{Kind: kind}
	switch kind {
	case KindClasses, KindDaily, KindPeerMatrix:
		p := instability.NewPipeline()
		n, err := instability.ClassifyLog(r, p)
		if err != nil {
			return nil, err
		}
		agg.Records = n
		fillFromPipeline(agg, p, kind)
	case KindTopOrigins:
		if top <= 0 {
			top = 10
		}
		counts := make(map[bgp.ASN]int)
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			agg.Records++
			if rec.Type != collector.Announce {
				continue
			}
			if origin, ok := rec.Attrs.Path.Origin(); ok {
				counts[origin]++
			}
		}
		agg.TopOrigins = topOrigins(counts, top)
	default:
		return nil, fmt.Errorf("serve: unknown aggregate kind %q (want %v)", kind, Kinds())
	}
	return agg, nil
}

func fillFromPipeline(agg *Aggregate, p *instability.Pipeline, kind string) {
	switch kind {
	case KindClasses:
		agg.Classes = classMap(p.Acc.TotalCounts())
	case KindDaily:
		for _, d := range p.Acc.Dates() {
			day := p.Acc.Days[d]
			m := make(map[string]int, core.NumClasses)
			for _, c := range core.Classes() {
				m[c.String()] = day.Counts[c]
			}
			agg.Daily = append(agg.Daily, DayClasses{Date: d.String(), Classes: m})
		}
	case KindPeerMatrix:
		byPeer := make(map[core.PeerKey]*PeerClasses)
		for _, d := range p.Acc.Dates() {
			for pk, pd := range p.Acc.Days[d].ByPeer {
				row := byPeer[pk]
				if row == nil {
					row = &PeerClasses{AS: uint16(pk.AS), Addr: uint32(pk.Addr), Classes: make(map[string]int)}
					byPeer[pk] = row
				}
				for _, c := range core.Classes() {
					row.Classes[c.String()] += pd.Counts[c]
				}
				row.Announces += pd.Announcements
				row.Withdrawals += pd.Withdrawals
			}
		}
		for _, row := range byPeer {
			agg.PeerMatrix = append(agg.PeerMatrix, *row)
		}
		sort.Slice(agg.PeerMatrix, func(i, j int) bool {
			if agg.PeerMatrix[i].AS != agg.PeerMatrix[j].AS {
				return agg.PeerMatrix[i].AS < agg.PeerMatrix[j].AS
			}
			return agg.PeerMatrix[i].Addr < agg.PeerMatrix[j].Addr
		})
	}
}

func classMap(tot [core.NumClasses]int) map[string]int {
	m := make(map[string]int, len(tot))
	for _, c := range core.Classes() {
		m[c.String()] = tot[c]
	}
	return m
}

func nanoTime(n int64) time.Time { return time.Unix(0, n).UTC() }

func topOrigins(counts map[bgp.ASN]int, top int) []OriginCount {
	out := make([]OriginCount, 0, len(counts))
	for as, n := range counts {
		out = append(out, OriginCount{AS: uint16(as), Announces: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Announces != out[j].Announces {
			return out[i].Announces > out[j].Announces
		}
		return out[i].AS < out[j].AS
	})
	if len(out) > top {
		out = out[:top]
	}
	return out
}
