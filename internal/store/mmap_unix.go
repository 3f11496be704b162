//go:build linux || darwin

package store

import (
	"fmt"
	"os"
	"syscall"
)

// mmapOpen maps the file at path read-only and shared: every store process
// (and every reader within one) sees the same physical page-cache pages, so
// repeated scans of a sealed segment cost zero syscalls and zero copies:
// v3 blocks are parsed, and their code columns scanned, in the mapping.
func mmapOpen(path string, size int64) ([]byte, error) {
	if size <= 0 || int64(int(size)) != size {
		return nil, fmt.Errorf("store: mmap: bad size %d", size)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// The mapping outlives the descriptor; closing it immediately keeps the
	// store's open-fd count independent of segment count.
	defer f.Close()
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmap(data []byte) error { return syscall.Munmap(data) }
