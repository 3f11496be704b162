//go:build !linux && !darwin

package store

import "errors"

// errMmapUnsupported makes every mapping attempt fail cleanly on platforms
// without a wired-up mmap, which routes all reads through the ReadAt
// fallback path, as a store reading through an injected FS does.
var errMmapUnsupported = errors.New("store: mmap unsupported on this platform")

func mmapOpen(path string, size int64) ([]byte, error) { return nil, errMmapUnsupported }

func munmap(data []byte) error { return nil }
