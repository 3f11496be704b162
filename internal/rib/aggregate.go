package rib

import (
	"sort"

	"instability/internal/netaddr"
)

// Aggregate computes the minimal set of CIDR prefixes covering exactly the
// given prefixes: adjacent sibling blocks are merged recursively and blocks
// nested inside others are dropped. This is the supernetting operation the
// paper credits with hiding customer-circuit instability inside a provider's
// autonomous system.
func Aggregate(prefixes []netaddr.Prefix) []netaddr.Prefix {
	if len(prefixes) == 0 {
		return nil
	}
	ps := append([]netaddr.Prefix(nil), prefixes...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })

	// Drop prefixes covered by an earlier (shorter or equal) prefix.
	kept := ps[:0]
	for _, p := range ps {
		if len(kept) > 0 {
			last := kept[len(kept)-1]
			if last == p || last.ContainsPrefix(p) {
				continue
			}
		}
		kept = append(kept, p)
	}

	// Merge sibling pairs repeatedly until a fixed point. Each merge can
	// enable another one level up, so iterate.
	for {
		merged := false
		out := kept[:0]
		for i := 0; i < len(kept); i++ {
			if i+1 < len(kept) && kept[i].Bits() == kept[i+1].Bits() &&
				kept[i].Bits() > 0 && kept[i].Sibling() == kept[i+1] {
				out = append(out, kept[i].Supernet())
				i++
				merged = true
				continue
			}
			out = append(out, kept[i])
		}
		kept = out
		if !merged {
			break
		}
	}
	return append([]netaddr.Prefix(nil), kept...)
}
