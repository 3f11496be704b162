package bgp

// The paper's central measurement is that update streams are dominated by
// redundant duplicates: the same AS path recurs millions of times across
// announcements. Interning maps each distinct path to a small dense integer
// once, so every later comparison, census set-insert, or map key is an
// integer operation instead of a segment-by-segment walk or a built string.

// PathID is the dense integer identity of an interned ASPath. IDs are only
// comparable between paths interned through the same PathTable: equal IDs
// mean equal paths, distinct IDs mean distinct paths.
type PathID uint32

// PathTable interns AS paths: the first ID call for a path assigns the next
// dense ID and stores a private copy; later calls with an equal path return
// the same ID without allocating. The zero value is not usable; call
// NewPathTable. A PathTable is not safe for concurrent use — callers that
// share one across goroutines must lock around it, while single owners (an
// interner, a RIB census) need no locks at all.
type PathTable struct {
	byHash map[uint64][]PathID
	paths  []ASPath
}

// NewPathTable returns an empty table.
func NewPathTable() *PathTable {
	return &PathTable{byHash: make(map[uint64][]PathID)}
}

// ID returns the table's dense ID for p, interning it on first sight. The
// stored copy is deep: the caller's slices are never retained.
func (t *PathTable) ID(p ASPath) PathID {
	h := HashPath(p)
	for _, id := range t.byHash[h] {
		if t.paths[id].Equal(p) {
			return id
		}
	}
	id := PathID(len(t.paths))
	t.paths = append(t.paths, ASPath{Segments: cloneSegments(p.Segments)})
	t.byHash[h] = append(t.byHash[h], id)
	return id
}

// Lookup returns the interned path for id. The returned path shares the
// table's storage and must not be mutated.
func (t *PathTable) Lookup(id PathID) ASPath { return t.paths[id] }

// Len returns the number of distinct paths interned.
func (t *PathTable) Len() int { return len(t.paths) }

// HashPath returns a 64-bit hash of the path's full segment structure,
// without allocating. Paths that Equal hash identically.
func HashPath(p ASPath) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, seg := range p.Segments {
		h = mixPath(h ^ uint64(seg.Type)<<32 ^ uint64(len(seg.ASNs)))
		for _, a := range seg.ASNs {
			h = mixPath(h ^ uint64(a))
		}
	}
	return h
}

// mixPath is the SplitMix64 finalizer: cheap, stateless,
// avalanche-quality.
func mixPath(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
