package netaddr

import "fmt"

// Allocator hands out non-overlapping prefixes from a parent block, mimicking
// a registry (or a provider carving customer networks out of its CIDR block).
// Allocation is first-fit over a simple free list and deterministic: the same
// sequence of Alloc calls always yields the same prefixes.
type Allocator struct {
	parent Prefix
	free   []Prefix // disjoint free blocks, kept sorted by Compare
}

// NewAllocator returns an allocator over the given parent block.
func NewAllocator(parent Prefix) *Allocator {
	return &Allocator{parent: parent, free: []Prefix{parent}}
}

// Alloc carves a prefix of the requested mask length out of the free space.
// It returns an error when the block is exhausted or bits is shorter than the
// parent's mask.
func (al *Allocator) Alloc(bits int) (Prefix, error) {
	if bits < al.parent.Bits() || bits > 32 {
		return Prefix{}, fmt.Errorf("netaddr: cannot allocate /%d from %v", bits, al.parent)
	}
	for i, blk := range al.free {
		if blk.Bits() > bits {
			continue
		}
		// Remove blk, split it down to the requested size, return the low
		// half and push the remainders back onto the free list.
		al.free = append(al.free[:i], al.free[i+1:]...)
		for blk.Bits() < bits {
			lo, hi := blk.Halves()
			al.insertFree(hi)
			blk = lo
		}
		return blk, nil
	}
	return Prefix{}, fmt.Errorf("netaddr: block %v exhausted for /%d", al.parent, bits)
}

func (al *Allocator) insertFree(p Prefix) {
	lo, hi := 0, len(al.free)
	for lo < hi {
		mid := (lo + hi) / 2
		if al.free[mid].Compare(p) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	al.free = append(al.free, Prefix{})
	copy(al.free[lo+1:], al.free[lo:])
	al.free[lo] = p
}
