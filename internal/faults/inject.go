package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Plan is a deterministic fault schedule. Counted fields are 1-based ordinals
// over the Injector's lifetime ("the Nth write fails"); probability fields
// are per-operation chances drawn from the seeded RNG. The zero Plan injects
// nothing and makes the Injector a transparent accounting wrapper.
type Plan struct {
	// Seed drives every random choice (torn-write split points, bit
	// positions, probabilistic faults). The same Plan over the same
	// operation sequence reproduces the same faults exactly.
	Seed int64

	// FailOpenN fails the Nth Open/OpenFile/Create with ErrInjected.
	FailOpenN int
	// FailWriteN fails the Nth file write with ErrInjected; no bytes reach
	// the file.
	FailWriteN int
	// TornWriteN tears the Nth file write: a random strict prefix of the
	// buffer is persisted, then ErrInjected is returned — the classic
	// crash-mid-write shape from the ALICE analysis.
	TornWriteN int
	// FailSyncN fails the Nth Sync with ErrInjected (data already written
	// stays written, as on a real fsync error).
	FailSyncN int
	// CrashAtOp kills the filesystem at the Nth mutating operation (write,
	// sync, truncate, rename, remove, create). A crashing write persists a
	// random prefix first (torn); every later operation on the Injector and
	// its files returns ErrCrashed. Reopening the directory through a fresh
	// FS models process restart.
	CrashAtOp int

	// WriteErrProb fails each write with this probability.
	WriteErrProb float64
	// ShortWriteProb tears each write (random prefix + ErrInjected) with
	// this probability.
	ShortWriteProb float64

	// FlipReadBitN flips one random bit of the buffer returned by the Nth
	// ReadAt — a latent media error in a sealed segment.
	FlipReadBitN int
	// FlipReadBitProb flips one random bit per ReadAt with this probability.
	FlipReadBitProb float64

	// MaxOpDelay, when nonzero, sleeps a uniform random duration in
	// [0, MaxOpDelay) before each write and sync, widening crash windows in
	// concurrent tests.
	MaxOpDelay time.Duration
}

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
	return &injFile{in: in, f: f}, nil
}

func (in *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return in.openCommon(func() (File, error) { return in.inner.OpenFile(name, flag, perm) })
}

func (in *Injector) Open(name string) (File, error) {
	return in.openCommon(func() (File, error) { return in.inner.Open(name) })
}

func (in *Injector) Create(name string) (File, error) {
	in.mu.Lock()
	if in.crashed {
		in.mu.Unlock()
		return nil, ErrCrashed
	}
	if in.mutOp() {
		in.mu.Unlock()
		return nil, ErrCrashed
	}
	in.mu.Unlock()
	return in.openCommon(func() (File, error) { return in.inner.Create(name) })
}

func (in *Injector) mutatePathOp(op func() error) error {
	in.mu.Lock()
	if in.crashed {
		in.mu.Unlock()
		return ErrCrashed
	}
	if in.mutOp() {
		in.mu.Unlock()
		return ErrCrashed
	}
	in.mu.Unlock()
	return op()
}

func (in *Injector) Rename(oldpath, newpath string) error {
	return in.mutatePathOp(func() error { return in.inner.Rename(oldpath, newpath) })
}

func (in *Injector) Remove(name string) error {
	return in.mutatePathOp(func() error { return in.inner.Remove(name) })
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	in.mu.Lock()
	if in.crashed {
		in.mu.Unlock()
		return ErrCrashed
	}
	in.mu.Unlock()
	return in.inner.MkdirAll(path, perm)
}

func (in *Injector) ReadDir(name string) ([]os.DirEntry, error) {
	in.mu.Lock()
	if in.crashed {
		in.mu.Unlock()
		return nil, ErrCrashed
	}
	in.mu.Unlock()
	return in.inner.ReadDir(name)
}

// injFile routes one file's operations back through its Injector.
type injFile struct {
	in *Injector
	f  File
}

func (jf *injFile) Name() string { return jf.f.Name() }

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
			jf.f.Write(p[:keep]) // best effort; the op still fails
		}
		if crash {
			return keep, ErrCrashed
		}
		return keep, ErrInjected
	case fail:
		return 0, ErrInjected
	default:
		return jf.f.Write(p)
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
	return jf.f.Sync()
}

func (jf *injFile) Truncate(size int64) error {
	in := jf.in
	in.mu.Lock()
	if in.crashed {
		in.mu.Unlock()
		return ErrCrashed
	}
	if in.mutOp() {
		in.mu.Unlock()
		return ErrCrashed
	}
	in.mu.Unlock()
	return jf.f.Truncate(size)
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
	n, err := jf.f.ReadAt(p, off)
	if flip && n > 0 {
		if bitByte >= n {
			bitByte = n - 1
		}
		p[bitByte] ^= 1 << bit
	}
	return n, err
}

func (jf *injFile) Read(p []byte) (int, error) {
	in := jf.in
	in.mu.Lock()
	crashed := in.crashed
	in.mu.Unlock()
	if crashed {
		return 0, ErrCrashed
	}
	return jf.f.Read(p)
}

func (jf *injFile) Seek(offset int64, whence int) (int64, error) {
	return jf.f.Seek(offset, whence)
}

func (jf *injFile) Stat() (os.FileInfo, error) { return jf.f.Stat() }

func (jf *injFile) Close() error {
	in := jf.in
	in.mu.Lock()
	in.openFiles--
	in.mu.Unlock()
	// Close succeeds even after a crash: the handle accounting must stay
	// balanced, and a dead process's descriptors are reaped regardless.
	return jf.f.Close()
}

// ParseSpec builds a Plan from a comma-separated key=value chaos spec, the
// form the -chaos CLI flags take, e.g.
//
//	seed=42,flipread=0.001,failsync=3
//	seed=7,tornwrite=5,crashop=40
//
// Keys: seed, failopen, failwrite, tornwrite, failsync, crashop (ints);
// writeerr, shortwrite, flipreadp (probabilities in [0,1]); flipread (int N);
// opdelay (duration). Counts and the delay are not negative. Unknown keys
// and out-of-range values are errors, so typos fail loudly.
func ParseSpec(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	counts := map[string]*int{
		"failopen": &p.FailOpenN, "failwrite": &p.FailWriteN, "tornwrite": &p.TornWriteN,
		"failsync": &p.FailSyncN, "crashop": &p.CrashAtOp, "flipread": &p.FlipReadBitN,
	}
	probs := map[string]*float64{"writeerr": &p.WriteErrProb, "shortwrite": &p.ShortWriteProb, "flipreadp": &p.FlipReadBitProb}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return p, fmt.Errorf("faults: bad spec element %q (want key=value)", kv)
		}
		var err error
		switch n, f := counts[k], probs[k]; {
		case k == "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case k == "opdelay":
			if p.MaxOpDelay, err = time.ParseDuration(v); err == nil && p.MaxOpDelay < 0 {
				err = errors.New("negative")
			}
		case n != nil:
			if *n, err = strconv.Atoi(v); err == nil && *n < 0 {
				err = errors.New("negative")
			}
		case f != nil:
			if *f, err = strconv.ParseFloat(v, 64); err == nil && !(*f >= 0 && *f <= 1) { // a NaN fails this too
				err = errors.New("not a probability in [0,1]")
			}
		default:
			return p, fmt.Errorf("faults: unknown spec key %q", k)
		}
		if err != nil {
			return p, fmt.Errorf("faults: bad spec value %q: %v", kv, err)
		}
	}
	return p, nil
}
