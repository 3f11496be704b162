package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// TestDecodeIndexBoundsCounts feeds decodeIndex an index whose postings count
// claims far more entries than the bytes behind it hold. Only v3 indexes
// carry a checksum, so one flipped byte in a v1 or v2 segment's index reaches
// this decoder: it must report ErrCorrupt before allocating for the claimed
// count, not after.
func TestDecodeIndexBoundsCounts(t *testing.T) {
	for _, count := range []uint32{1 << 16, 1 << 20, 1 << 31} {
		for _, list := range []string{"peers", "origins"} {
			ix := binary.BigEndian.AppendUint32(nil, 0) // no blocks
			if list == "origins" {
				ix = binary.BigEndian.AppendUint32(ix, 0) // no peer postings
			}
			ix = binary.BigEndian.AppendUint32(ix, count)
			t.Run(fmt.Sprintf("%s-%d", list, count), func(t *testing.T) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := decodeIndex(ix)
				runtime.ReadMemStats(&after)
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decodeIndex(%x) = %v, want ErrCorrupt", ix, err)
				}
				if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
					t.Fatalf("decodeIndex(%x) allocated %d bytes before rejecting it", ix, got)
				}
			})
		}
	}
}
