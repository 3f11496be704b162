package faults

import (
	"math/rand"
	"os"
	"sync"
	"time"
)

// Stats counts what an Injector observed and injected.
type Stats struct {
	Opens, Writes, Syncs, Reads int // operations seen
	OpenFiles                   int // opened minus closed (leak detector)
	Injected                    int // faults fired
	Crashed                     bool
}

// Injector wraps an FS and applies a Plan. All methods are safe for
// concurrent use; ordinal counters are global across all files opened
// through the Injector.
type Injector struct {
	inner FS
	mu    sync.Mutex
	rng   *rand.Rand
	plan  Plan

	opens, writes, syncs, reads, mutOps int
	openFiles                           int
	injected                            int
	crashed                             bool
}

// NewInjector returns an Injector applying plan to every operation routed
// through inner.
func NewInjector(inner FS, plan Plan) *Injector {
	return &Injector{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Stats snapshots the operation and fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return Stats{
		Opens: in.opens, Writes: in.writes, Syncs: in.syncs, Reads: in.reads,
		OpenFiles: in.openFiles, Injected: in.injected, Crashed: in.crashed,
	}
}

// mutOp advances the mutating-operation counter and reports whether this
// operation is the crash point. Callers hold in.mu.
func (in *Injector) mutOp() (crashNow bool) {
	in.mutOps++
	if in.plan.CrashAtOp > 0 && in.mutOps == in.plan.CrashAtOp {
		in.crashed = true
		in.injected++
		return true
	}
	return false
}

func (in *Injector) openCommon(open func() (File, error)) (File, error) {
	in.mu.Lock()
	if in.crashed {
		in.mu.Unlock()
		return nil, ErrCrashed
	}
	in.opens++
	if in.plan.FailOpenN > 0 && in.opens == in.plan.FailOpenN {
		in.injected++
		in.mu.Unlock()
		return nil, ErrInjected
	}
	in.mu.Unlock()
	f, err := open()
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	in.openFiles++
	in.mu.Unlock()
	return &injFile{File: f, in: in}, nil
}

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return in.openCommon(func() (File, error) { return in.inner.OpenFile(name, flag, perm) })
}

func (in *Injector) Open(name string) (File, error) {
	return in.openCommon(func() (File, error) { return in.inner.Open(name) })
}

// alive returns ErrCrashed once the crash point has fired.
func (in *Injector) alive() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return ErrCrashed
	}
	return nil
}

// mutate counts one mutating operation that writes no bytes (create,
// truncate, rename, remove): ErrCrashed if the filesystem is dead or dies
// at this operation.
func (in *Injector) mutate() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed || in.mutOp() {
		return ErrCrashed
	}
	return nil
}

func (in *Injector) Create(name string) (File, error) {
	if err := in.mutate(); err != nil {
		return nil, err
	}
	return in.openCommon(func() (File, error) { return in.inner.Create(name) })
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if err := in.mutate(); err != nil {
		return err
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) Remove(name string) error {
	if err := in.mutate(); err != nil {
		return err
	}
	return in.inner.Remove(name)
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	if err := in.alive(); err != nil {
		return err
	}
	return in.inner.MkdirAll(path, perm)
}

func (in *Injector) ReadDir(name string) ([]os.DirEntry, error) {
	if err := in.alive(); err != nil {
		return nil, err
	}
	return in.inner.ReadDir(name)
}

// injFile routes one file's operations back through its Injector; Name,
// Seek and Stat go straight to the file.
type injFile struct {
	File
	in *Injector
}

func (jf *injFile) delayLocked() {
	if d := jf.in.plan.MaxOpDelay; d > 0 {
		time.Sleep(time.Duration(jf.in.rng.Int63n(int64(d))))
	}
}

func (jf *injFile) Write(p []byte) (int, error) {
	in := jf.in
	in.mu.Lock()
	if in.crashed {
		in.mu.Unlock()
		return 0, ErrCrashed
	}
	jf.delayLocked()
	in.writes++
	crash := in.mutOp()
	torn := crash ||
		(in.plan.TornWriteN > 0 && in.writes == in.plan.TornWriteN) ||
		(in.plan.ShortWriteProb > 0 && in.rng.Float64() < in.plan.ShortWriteProb)
	fail := (in.plan.FailWriteN > 0 && in.writes == in.plan.FailWriteN) ||
		(in.plan.WriteErrProb > 0 && in.rng.Float64() < in.plan.WriteErrProb)
	var keep int
	if torn && len(p) > 0 {
		keep = in.rng.Intn(len(p)) // strict prefix: at least one byte lost
	}
	if torn || fail {
		in.injected++
	}
	in.mu.Unlock()

	switch {
	case torn:
		if keep > 0 {
			jf.File.Write(p[:keep]) // best effort; the op still fails
		}
		if crash {
			return keep, ErrCrashed
		}
		return keep, ErrInjected
	case fail:
		return 0, ErrInjected
	default:
		return jf.File.Write(p)
	}
}

func (jf *injFile) Sync() error {
	in := jf.in
	in.mu.Lock()
	if in.crashed {
		in.mu.Unlock()
		return ErrCrashed
	}
	jf.delayLocked()
	in.syncs++
	if in.mutOp() {
		in.mu.Unlock()
		return ErrCrashed
	}
	if in.plan.FailSyncN > 0 && in.syncs == in.plan.FailSyncN {
		in.injected++
		in.mu.Unlock()
		return ErrInjected
	}
	in.mu.Unlock()
	return jf.File.Sync()
}

func (jf *injFile) Truncate(size int64) error {
	if err := jf.in.mutate(); err != nil {
		return err
	}
	return jf.File.Truncate(size)
}

func (jf *injFile) ReadAt(p []byte, off int64) (int, error) {
	in := jf.in
	in.mu.Lock()
	if in.crashed {
		in.mu.Unlock()
		return 0, ErrCrashed
	}
	in.reads++
	flip := (in.plan.FlipReadBitN > 0 && in.reads == in.plan.FlipReadBitN) ||
		(in.plan.FlipReadBitProb > 0 && in.rng.Float64() < in.plan.FlipReadBitProb)
	var bitByte, bit int
	if flip && len(p) > 0 {
		bitByte = in.rng.Intn(len(p))
		bit = in.rng.Intn(8)
		in.injected++
	}
	in.mu.Unlock()
	n, err := jf.File.ReadAt(p, off)
	if flip && n > 0 {
		if bitByte >= n {
			bitByte = n - 1
		}
		p[bitByte] ^= 1 << bit
	}
	return n, err
}

func (jf *injFile) Read(p []byte) (int, error) {
	if err := jf.in.alive(); err != nil {
		return 0, err
	}
	return jf.File.Read(p)
}

func (jf *injFile) Close() error {
	in := jf.in
	in.mu.Lock()
	in.openFiles--
	in.mu.Unlock()
	// Close succeeds even after a crash: the handle accounting must stay
	// balanced, and a dead process's descriptors are reaped regardless.
	return jf.File.Close()
}
