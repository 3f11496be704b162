package core

import "instability/internal/netaddr"

// The classifier's history is keyed strictly per (peer, prefix): no record's
// classification ever reads another key's state. That makes classification
// embarrassingly parallel under one constraint — every record of a key must
// be processed by the same worker, in arrival order. The table census needs
// more: all of a prefix's routes, from every peer, must live in one
// classifier for the census to count the prefix once and judge it
// multihomed. Partitioning by prefix alone satisfies both — equal prefix
// means equal shard for every peer, so each (peer, prefix) key is still
// confined to one shard — and it is also what lets a classifier key its
// route table by prefix.

// PrefixShardOf returns a stable shard index in [0, shards) keyed by prefix
// alone; the peer is deliberately ignored.
func PrefixShardOf(p netaddr.Prefix, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := mix64(p.Key())
	return int(h % uint64(shards))
}

// mix64 is the SplitMix64 finalizer: cheap, stateless, and avalanche-quality
// enough that consecutive prefixes spread evenly over small shard counts.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
