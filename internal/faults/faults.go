// Package faults is the fault-injection plane: deterministic, seedable
// misbehavior for the storage and transport layers, so the failure modes the
// paper's infrastructure actually exhibits — crashing collectors, torn
// writes, flaky peering transports — are first-class, reproducible inputs to
// tests and chaos runs instead of things that only happen in production.
//
// One Plan describes every injected fault, and ParseSpec is the one grammar
// of the -chaos flags that build it. Three wrappers apply it, each reading
// the fields of its plane:
//
//   - FS / File: the filesystem surface internal/store performs all I/O
//     through. Disk is the passthrough implementation; Injector wraps any FS
//     and applies write errors, short and torn writes, fsync failures,
//     whole-process crash points, and bit-flips on reads.
//   - Conn: a flaky net.Conn wrapper for live transports (bgpcollect -chaos
//     with -dial): delays and resets.
//   - Transport: seeded per-message chaos decisions (drop, duplicate, delay,
//     reset) for the simulated session pipe.
//
// Everything is driven by an explicit seed, so a failing chaos run is a
// reproducible test case, in the spirit of the ALICE torn-write analysis
// (Pillai et al., OSDI '14) and the Chubby/Paxos resilience harnesses.
package faults

import (
	"errors"
	"io"
	"os"
)

// Injected faults are distinguishable from real I/O errors, so tests can
// assert that a failure was the planned one.
var (
	// ErrInjected is returned by operations the Plan fails deliberately.
	ErrInjected = errors.New("faults: injected I/O error")
	// ErrCrashed is returned by every operation after the Plan's crash
	// point fires: the simulated process is dead and nothing reaches disk.
	ErrCrashed = errors.New("faults: filesystem crashed")
)

// File is the handle surface the store needs from an open file. *os.File
// implements it.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Seeker
	io.Closer
	Name() string
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// FS is the filesystem surface the store performs all I/O through.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	Create(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
}

// Disk is the passthrough FS over the real filesystem.
type Disk struct{}

func (Disk) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (Disk) Open(name string) (File, error)               { return os.Open(name) }
func (Disk) Create(name string) (File, error)             { return os.Create(name) }
func (Disk) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (Disk) Remove(name string) error                     { return os.Remove(name) }
func (Disk) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (Disk) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
