// Package policy implements the route-policy machinery that 1996 border
// routers evaluated on every update: ordered match/action rule lists over
// prefixes, prefix lengths, AS paths and communities. The paper's §4 notes
// that "each route may be matched against a potentially extensive list of
// policy filters" — the per-update cost that makes pathological update
// volume expensive — and §3 mentions ISPs "filtering all route
// announcements longer than a given prefix length" as a blunt stability
// tool; both are expressible here.
package policy

import (
	"fmt"
	"strings"

	"instability/internal/bgp"
	"instability/internal/netaddr"
)

// Match selects routes. Zero-valued fields match everything, so the zero
// Match is a catch-all.
type Match struct {
	// Exact matches only this precise prefix.
	Exact *netaddr.Prefix
	// Within matches prefixes contained in this block.
	Within *netaddr.Prefix
	// MinLen/MaxLen bound the prefix mask length (inclusive); both zero
	// means any length.
	MinLen, MaxLen int
	// PathContains requires the AS path to traverse this AS.
	PathContains bgp.ASN
	// OriginAS requires the route to originate at this AS.
	OriginAS bgp.ASN
	// HasCommunity requires this community tag.
	HasCommunity bgp.Community
	// MaxPathLen rejects longer AS paths when positive.
	MaxPathLen int
}

// Matches reports whether the route satisfies every non-zero criterion.
func (m Match) Matches(prefix netaddr.Prefix, attrs bgp.Attrs) bool {
	if m.Exact != nil && *m.Exact != prefix {
		return false
	}
	if m.Within != nil && !m.Within.ContainsPrefix(prefix) {
		return false
	}
	if m.MinLen > 0 && prefix.Bits() < m.MinLen {
		return false
	}
	if m.MaxLen > 0 && prefix.Bits() > m.MaxLen {
		return false
	}
	if m.PathContains != 0 && !attrs.Path.Contains(m.PathContains) {
		return false
	}
	if m.OriginAS != 0 {
		origin, ok := attrs.Path.Origin()
		if !ok || origin != m.OriginAS {
			return false
		}
	}
	if m.HasCommunity != 0 {
		found := false
		for _, c := range attrs.Communities {
			if c == m.HasCommunity {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if m.MaxPathLen > 0 && attrs.Path.Len() > m.MaxPathLen {
		return false
	}
	return true
}

// Action transforms (or rejects) a matched route.
type Action struct {
	// Reject drops the route.
	Reject bool
	// SetLocalPref overrides LOCAL_PREF when non-nil.
	SetLocalPref *uint32
	// SetMED overrides MED when non-nil.
	SetMED *uint32
	// AddCommunity appends a community tag.
	AddCommunity bgp.Community
	// StripCommunities removes all community tags.
	StripCommunities bool
	// Prepend prepends the given AS this many times (AS-path padding, the
	// crude traffic-engineering knob of the era).
	Prepend   int
	PrependAS bgp.ASN
}

// apply returns the transformed attributes; reject short-circuits.
func (a Action) apply(attrs bgp.Attrs) (bgp.Attrs, bool) {
	if a.Reject {
		return attrs, false
	}
	out := attrs
	if a.SetLocalPref != nil {
		out.HasLocalPref, out.LocalPref = true, *a.SetLocalPref
	}
	if a.SetMED != nil {
		out.HasMED, out.MED = true, *a.SetMED
	}
	if a.StripCommunities {
		out.Communities = nil
	}
	if a.AddCommunity != 0 {
		out.Communities = append(append([]bgp.Community(nil), out.Communities...), a.AddCommunity)
	}
	for i := 0; i < a.Prepend; i++ {
		out.Path = out.Path.Prepend(a.PrependAS)
	}
	return out, true
}

// Rule is one match/action pair.
type Rule struct {
	Name   string
	Match  Match
	Action Action
}

// Policy is an ordered rule list. The first matching rule decides; when no
// rule matches, DefaultReject decides.
type Policy struct {
	Rules []Rule
	// DefaultReject drops routes no rule matched (deny-by-default import
	// policies).
	DefaultReject bool
	// Evaluations counts routes processed — the CPU-cost proxy the paper's
	// update-volume discussion turns on.
	Evaluations int
}

// Apply evaluates the policy on one route, returning the (possibly
// rewritten) attributes and whether the route is accepted.
func (p *Policy) Apply(prefix netaddr.Prefix, attrs bgp.Attrs) (bgp.Attrs, bool) {
	p.Evaluations++
	for i := range p.Rules {
		if p.Rules[i].Match.Matches(prefix, attrs) {
			return p.Rules[i].Action.apply(attrs)
		}
	}
	if p.DefaultReject {
		return attrs, false
	}
	return attrs, true
}

// String summarizes the rule list.
func (p *Policy) String() string {
	var sb strings.Builder
	for i, r := range p.Rules {
		verb := "accept"
		if r.Action.Reject {
			verb = "reject"
		}
		name := r.Name
		if name == "" {
			name = fmt.Sprintf("rule%d", i)
		}
		fmt.Fprintf(&sb, "%s: %s\n", name, verb)
	}
	if p.DefaultReject {
		sb.WriteString("default: reject\n")
	} else {
		sb.WriteString("default: accept\n")
	}
	return sb.String()
}
