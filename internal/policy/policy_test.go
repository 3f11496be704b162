package policy

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"instability/internal/bgp"
	"instability/internal/netaddr"
)

func pfx(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

func attrs(path ...bgp.ASN) bgp.Attrs {
	return bgp.Attrs{Origin: bgp.OriginIGP, Path: bgp.PathFromASNs(path...), NextHop: 1}
}

func TestEmptyPolicyAcceptsUnchanged(t *testing.T) {
	p := &Policy{}
	a := attrs(690, 237)
	got, ok := p.Apply(pfx("35.0.0.0/8"), a)
	if !ok || !got.PolicyEqual(&a) {
		t.Fatal("empty policy should accept unchanged")
	}
	if p.Evaluations != 1 {
		t.Fatal("evaluation not counted")
	}
}

func TestDefaultReject(t *testing.T) {
	p := &Policy{DefaultReject: true}
	if _, ok := p.Apply(pfx("35.0.0.0/8"), attrs(690)); ok {
		t.Fatal("deny-by-default accepted")
	}
}

func TestFirstMatchWins(t *testing.T) {
	lp := uint32(200)
	p := &Policy{Rules: []Rule{
		{Match: Match{PathContains: 690}, Action: Action{SetLocalPref: &lp}},
		{Match: Match{PathContains: 690}, Action: Action{Reject: true}},
	}}
	got, ok := p.Apply(pfx("35.0.0.0/8"), attrs(690, 237))
	if !ok || !got.HasLocalPref || got.LocalPref != 200 {
		t.Fatalf("first rule should win: %+v %v", got, ok)
	}
}

func TestMatchCriteria(t *testing.T) {
	within := pfx("10.0.0.0/8")
	cases := []struct {
		name   string
		m      Match
		prefix netaddr.Prefix
		attrs  bgp.Attrs
		want   bool
	}{
		{"within-hit", Match{Within: &within}, pfx("10.1.0.0/16"), attrs(690), true},
		{"within-miss", Match{Within: &within}, pfx("11.0.0.0/8"), attrs(690), false},
		{"minlen", Match{MinLen: 25}, pfx("10.0.0.0/24"), attrs(690), false},
		{"minlen-hit", Match{MinLen: 24}, pfx("10.0.0.0/24"), attrs(690), true},
		{"maxlen", Match{MaxLen: 16}, pfx("10.0.0.0/24"), attrs(690), false},
		{"path-hit", Match{PathContains: 237}, pfx("10.0.0.0/8"), attrs(690, 237), true},
		{"path-miss", Match{PathContains: 7}, pfx("10.0.0.0/8"), attrs(690, 237), false},
		{"origin-hit", Match{OriginAS: 237}, pfx("10.0.0.0/8"), attrs(690, 237), true},
		{"origin-miss", Match{OriginAS: 690}, pfx("10.0.0.0/8"), attrs(690, 237), false},
		{"origin-empty-path", Match{OriginAS: 690}, pfx("10.0.0.0/8"), bgp.Attrs{}, false},
		{"maxpathlen", Match{MaxPathLen: 1}, pfx("10.0.0.0/8"), attrs(690, 237), false},
		{"maxpathlen-hit", Match{MaxPathLen: 2}, pfx("10.0.0.0/8"), attrs(690, 237), true},
	}
	for _, c := range cases {
		if got := c.m.Matches(c.prefix, c.attrs); got != c.want {
			t.Errorf("%s: got %v", c.name, got)
		}
	}
	withCommunity := attrs(690)
	withCommunity.Communities = []bgp.Community{42}
	if !(Match{HasCommunity: 42}).Matches(pfx("10.0.0.0/8"), withCommunity) {
		t.Error("community match failed")
	}
	if (Match{HasCommunity: 7}).Matches(pfx("10.0.0.0/8"), withCommunity) {
		t.Error("community mismatch accepted")
	}
}

func TestActions(t *testing.T) {
	lp, med := uint32(200), uint32(50)
	p := &Policy{Rules: []Rule{{
		Match: Match{},
		Action: Action{
			SetLocalPref: &lp, SetMED: &med,
			AddCommunity: bgp.Community(690<<16 | 100),
			Prepend:      2, PrependAS: 690,
		},
	}}}
	got, ok := p.Apply(pfx("35.0.0.0/8"), attrs(690, 237))
	if !ok {
		t.Fatal("rejected")
	}
	if !got.HasLocalPref || got.LocalPref != 200 || !got.HasMED || got.MED != 50 {
		t.Fatalf("pref/med not set: %+v", got)
	}
	if len(got.Communities) != 1 {
		t.Fatalf("communities %v", got.Communities)
	}
	if got.Path.Key() != "690 690 690 237" {
		t.Fatalf("prepend: %v", got.Path)
	}
}

func TestStripCommunities(t *testing.T) {
	a := attrs(690)
	a.Communities = []bgp.Community{1, 2}
	p := &Policy{Rules: []Rule{{Action: Action{StripCommunities: true, AddCommunity: 9}}}}
	got, _ := p.Apply(pfx("35.0.0.0/8"), a)
	if len(got.Communities) != 1 || got.Communities[0] != 9 {
		t.Fatalf("communities %v", got.Communities)
	}
	if len(a.Communities) != 2 {
		t.Fatal("input mutated")
	}
}

func TestActionDoesNotMutateInput(t *testing.T) {
	a := attrs(690, 237)
	a.Communities = []bgp.Community{1}
	p := &Policy{Rules: []Rule{{Action: Action{AddCommunity: 5, Prepend: 1, PrependAS: 9}}}}
	p.Apply(pfx("35.0.0.0/8"), a)
	if a.Path.Key() != "690 237" || len(a.Communities) != 1 {
		t.Fatalf("input mutated: %v %v", a.Path, a.Communities)
	}
}

func TestPrefixLengthFilter(t *testing.T) {
	p := prefixLengthFilter(24)
	if _, ok := p.Apply(pfx("10.0.0.0/25"), attrs(690)); ok {
		t.Fatal("/25 accepted")
	}
	if _, ok := p.Apply(pfx("10.0.0.0/24"), attrs(690)); !ok {
		t.Fatal("/24 rejected")
	}
	if _, ok := p.Apply(pfx("10.0.0.0/8"), attrs(690)); !ok {
		t.Fatal("/8 rejected")
	}
}

func TestMartianFilter(t *testing.T) {
	p := martianFilter()
	rejected := []string{
		"10.0.0.0/8", "10.1.0.0/16", "192.168.0.0/16", "172.16.0.0/12",
		"172.20.0.0/16", "127.0.0.0/8", "224.0.0.0/4", "0.0.0.0/0",
	}
	for _, s := range rejected {
		if _, ok := p.Apply(pfx(s), attrs(690)); ok {
			t.Errorf("martian %s accepted", s)
		}
	}
	accepted := []string{"35.0.0.0/8", "192.42.113.0/24", "141.213.0.0/16", "172.32.0.0/16"}
	for _, s := range accepted {
		if _, ok := p.Apply(pfx(s), attrs(690)); !ok {
			t.Errorf("legitimate %s rejected", s)
		}
	}
}

func TestCustomerPreference(t *testing.T) {
	p := customerPreference(237, 200, bgp.Community(690<<16|100))
	got, ok := p.Apply(pfx("35.0.0.0/8"), attrs(690, 237))
	if !ok || got.LocalPref != 200 || len(got.Communities) != 1 {
		t.Fatalf("customer route not preferred: %+v", got)
	}
	got, ok = p.Apply(pfx("141.213.0.0/16"), attrs(690, 1239))
	if !ok || got.HasLocalPref {
		t.Fatalf("non-customer route modified: %+v", got)
	}
}

func TestPolicyString(t *testing.T) {
	p := prefixLengthFilter(24)
	s := p.String()
	if !strings.Contains(s, "reject-longer-than-24") || !strings.Contains(s, "default: accept") {
		t.Fatalf("render: %q", s)
	}
	p2 := &Policy{DefaultReject: true, Rules: []Rule{{}}}
	if !strings.Contains(p2.String(), "default: reject") {
		t.Fatal("default reject not rendered")
	}
}

func TestZeroMatchMatchesEverythingQuick(t *testing.T) {
	f := func(addr uint32, bits8 uint8, asns []uint16) bool {
		bits := int(bits8 % 33)
		prefix := netaddr.MustPrefix(netaddr.Addr(addr), bits)
		path := make([]bgp.ASN, len(asns))
		for i, a := range asns {
			path[i] = bgp.ASN(a)
		}
		return (Match{}).Matches(prefix, attrs(path...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPolicyApply(b *testing.B) {
	p := martianFilter()
	a := attrs(690, 1239, 237)
	prefix := pfx("35.0.0.0/8")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Apply(prefix, a)
	}
}

// prefixLengthFilter builds the draconian stability policy the paper
// mentions: reject every announcement more specific than maxLen.
func prefixLengthFilter(maxLen int) *Policy {
	return &Policy{Rules: []Rule{{
		Name:   fmt.Sprintf("reject-longer-than-%d", maxLen),
		Match:  Match{MinLen: maxLen + 1},
		Action: Action{Reject: true},
	}}}
}

// martianFilter rejects the never-routable address blocks every sane 1996
// border filtered (RFC 1918 space, loopback, class D/E, default).
func martianFilter() *Policy {
	martians := []string{
		"0.0.0.0/8", "10.0.0.0/8", "127.0.0.0/8",
		"172.16.0.0/12", "192.168.0.0/16", "224.0.0.0/3",
	}
	var rules []Rule
	for _, m := range martians {
		pfx := netaddr.MustParsePrefix(m)
		rules = append(rules, Rule{
			Name:   "martian-" + m,
			Match:  Match{Within: &pfx},
			Action: Action{Reject: true},
		})
	}
	// Also reject a bare default route from peers.
	def := netaddr.MustParsePrefix("0.0.0.0/0")
	rules = append(rules, Rule{
		Name:   "no-default",
		Match:  Match{Exact: &def},
		Action: Action{Reject: true},
	})
	return &Policy{Rules: rules}
}

// customerPreference tags and prefers routes from a customer AS — the
// standard commercial policy of preferring routes you are paid to carry.
func customerPreference(customer bgp.ASN, localPref uint32, tag bgp.Community) *Policy {
	lp := localPref
	return &Policy{Rules: []Rule{{
		Name:   fmt.Sprintf("prefer-customer-%v", customer),
		Match:  Match{PathContains: customer},
		Action: Action{SetLocalPref: &lp, AddCommunity: tag},
	}}}
}
