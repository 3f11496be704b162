// Package rib implements the routing information base used by the simulated
// routers and route servers: a binary radix trie keyed by prefix, the
// Adj-RIB-In / Loc-RIB / Adj-RIB-Out split of RFC 1771, the BGP decision
// process, CIDR aggregation, and the multihoming census the paper's Figure 10
// is built on.
package rib

import (
	"instability/internal/netaddr"
)

// Trie is a binary radix trie mapping prefixes to values. The zero value is
// an empty trie ready to use.
//
// The trie supports exact-match insert and lookup and ordered traversal. It
// is not safe for concurrent mutation.
type Trie[V any] struct {
	root *node[V]
}

type node[V any] struct {
	child [2]*node[V]
	val   V
	set   bool
}

// Insert stores val under p, replacing any previous value.
func (t *Trie[V]) Insert(p netaddr.Prefix, val V) {
	if t.root == nil {
		t.root = &node[V]{}
	}
	n := t.root
	for i := 0; i < p.Bits(); i++ {
		b := p.Bit(i)
		if n.child[b] == nil {
			n.child[b] = &node[V]{}
		}
		n = n.child[b]
	}
	n.val, n.set = val, true
}

// Get returns the value stored exactly at p.
func (t *Trie[V]) Get(p netaddr.Prefix) (V, bool) {
	var zero V
	n := t.root
	for i := 0; n != nil && i < p.Bits(); i++ {
		n = n.child[p.Bit(i)]
	}
	if n == nil || !n.set {
		return zero, false
	}
	return n.val, true
}

// Walk visits every stored prefix in Compare order (address, then mask
// length). Returning false from fn stops the walk.
func (t *Trie[V]) Walk(fn func(p netaddr.Prefix, v V) bool) {
	t.walk(t.root, 0, 0, fn)
}

func (t *Trie[V]) walk(n *node[V], addr uint32, depth int, fn func(netaddr.Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.set {
		if !fn(netaddr.MustPrefix(netaddr.Addr(addr), depth), n.val) {
			return false
		}
	}
	if depth == 32 {
		return true
	}
	if !t.walk(n.child[0], addr, depth+1, fn) {
		return false
	}
	return t.walk(n.child[1], addr|1<<(31-uint(depth)), depth+1, fn)
}
