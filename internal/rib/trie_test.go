package rib

import (
	"math/rand"
	"sort"
	"testing"

	"instability/internal/netaddr"
)

func pfx(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

// prefixes returns all stored prefixes in Compare order.
func prefixes[V any](t *Trie[V]) []netaddr.Prefix {
	var out []netaddr.Prefix
	t.Walk(func(p netaddr.Prefix, _ V) bool {
		out = append(out, p)
		return true
	})
	return out
}

func TestTrieInsertGetDelete(t *testing.T) {
	var tr Trie[int]
	if len(prefixes(&tr)) != 0 {
		t.Fatal("empty trie holds prefixes")
	}
	tr.Insert(pfx("10.0.0.0/8"), 1)
	tr.Insert(pfx("10.0.0.0/8"), 2)
	if v, ok := tr.Get(pfx("10.0.0.0/8")); !ok || v != 2 {
		t.Fatalf("get = %v %v, want the replacing value", v, ok)
	}
	if _, ok := tr.Get(pfx("10.0.0.0/16")); ok {
		t.Fatal("exact match must not find supernets' entries")
	}
	if n := len(prefixes(&tr)); n != 1 {
		t.Fatalf("%d prefixes after a replace", n)
	}
}

func TestTrieWalkOrder(t *testing.T) {
	var tr Trie[int]
	want := []netaddr.Prefix{
		pfx("0.0.0.0/0"),
		pfx("10.0.0.0/8"),
		pfx("10.0.0.0/16"),
		pfx("10.1.0.0/16"),
		pfx("192.168.0.0/16"),
		pfx("192.168.1.0/24"),
	}
	// Insert shuffled.
	rng := rand.New(rand.NewSource(5))
	for _, i := range rng.Perm(len(want)) {
		tr.Insert(want[i], i)
	}
	got := prefixes(&tr)
	if len(got) != len(want) {
		t.Fatalf("%d prefixes", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v want %v", got, want)
		}
	}
	// Early termination.
	n := 0
	tr.Walk(func(netaddr.Prefix, int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("walk visited %d after early stop", n)
	}
}

func TestTrieAgainstReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tr Trie[uint32]
	ref := map[netaddr.Prefix]uint32{}
	for i := 0; i < 20000; i++ {
		p := netaddr.MustPrefix(netaddr.Addr(rng.Uint32()), rng.Intn(33))
		v := rng.Uint32()
		tr.Insert(p, v)
		ref[p] = v
	}
	if n := len(prefixes(&tr)); n != len(ref) {
		t.Fatalf("len %d vs ref %d", n, len(ref))
	}
	for p, v := range ref {
		got, ok := tr.Get(p)
		if !ok || got != v {
			t.Fatalf("get(%v) = %v %v, want %v", p, got, ok, v)
		}
	}
}

func TestTrieWalkSortedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var tr Trie[int]
	ref := map[netaddr.Prefix]bool{}
	for i := 0; i < 500; i++ {
		p := netaddr.MustPrefix(netaddr.Addr(rng.Uint32()), 8+rng.Intn(25))
		tr.Insert(p, i)
		ref[p] = true
	}
	want := make([]netaddr.Prefix, 0, len(ref))
	for p := range ref {
		want = append(want, p)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })
	got := prefixes(&tr)
	if len(got) != len(want) {
		t.Fatalf("len %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func BenchmarkTrieInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ps := make([]netaddr.Prefix, 4096)
	for i := range ps {
		ps[i] = netaddr.MustPrefix(netaddr.Addr(rng.Uint32()), 8+rng.Intn(17))
	}
	b.ResetTimer()
	var tr Trie[int]
	for i := 0; i < b.N; i++ {
		tr.Insert(ps[i%len(ps)], i)
	}
}
