package faults

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Plan is a deterministic fault schedule, the one description of an injected
// fault on every plane: an Injector applies it to file I/O, a Conn to a live
// connection and a Transport to a simulated session link, each reading the
// fields of its plane. Counted fields are 1-based ordinals over the
// Injector's lifetime ("the Nth write fails"); probability fields are
// per-operation chances drawn from the seeded RNG. The zero Plan injects
// nothing and makes the Injector a transparent accounting wrapper.
type Plan struct {
	// Seed drives every random choice (torn-write split points, bit
	// positions, probabilistic faults, delays). The same Plan over the same
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

	// ResetProb tears the link down with this probability: a Conn closes
	// the connection and fails the read or write with ErrInjected, a
	// Transport fails the simulated link instead of delivering (both FSMs
	// see TransportDown).
	ResetProb float64
	// DropProb loses a simulated-link message with this probability.
	DropProb float64
	// DupProb delivers a simulated-link message twice with this probability.
	DupProb float64

	// MaxOpDelay, when nonzero, delays by a uniform random duration in
	// [0, MaxOpDelay): a sleep before each file write and sync (widening
	// crash windows in concurrent tests) and before each connection read
	// and write, and an extra one-way delay on each simulated-link message.
	MaxOpDelay time.Duration
}

// The planes a Plan faults, for Plan.Idle.
const (
	DiskPlane = 1 << iota // file I/O, through an Injector
	ConnPlane             // a live connection, through a Conn
	LinkPlane             // a simulated session link, through a Transport
)

// specKey is one -chaos key: the planes it faults and the Plan field it sets.
type specKey struct {
	name   string
	planes int
	count  *int
	prob   *float64
	delay  *time.Duration
}

// keys lists every -chaos key but seed, bound to p's fields.
func (p *Plan) keys() []specKey {
	return []specKey{
		{name: "failopen", planes: DiskPlane, count: &p.FailOpenN},
		{name: "failwrite", planes: DiskPlane, count: &p.FailWriteN},
		{name: "tornwrite", planes: DiskPlane, count: &p.TornWriteN},
		{name: "failsync", planes: DiskPlane, count: &p.FailSyncN},
		{name: "crashop", planes: DiskPlane, count: &p.CrashAtOp},
		{name: "writeerr", planes: DiskPlane, prob: &p.WriteErrProb},
		{name: "shortwrite", planes: DiskPlane, prob: &p.ShortWriteProb},
		{name: "flipread", planes: DiskPlane, count: &p.FlipReadBitN},
		{name: "flipreadp", planes: DiskPlane, prob: &p.FlipReadBitProb},
		{name: "resetp", planes: ConnPlane | LinkPlane, prob: &p.ResetProb},
		{name: "dropp", planes: LinkPlane, prob: &p.DropProb},
		{name: "dupp", planes: LinkPlane, prob: &p.DupProb},
		{name: "opdelay", planes: DiskPlane | ConnPlane | LinkPlane, delay: &p.MaxOpDelay},
	}
}

// Idle names the keys p sets that fault none of the planes in on (an OR of
// DiskPlane, ConnPlane and LinkPlane): what a run faulting only those
// planes would accept and then never inject.
func (p Plan) Idle(on int) []string {
	var idle []string
	for _, k := range p.keys() {
		set := k.count != nil && *k.count != 0 || k.prob != nil && *k.prob != 0 || k.delay != nil && *k.delay != 0
		if set && k.planes&on == 0 {
			idle = append(idle, k.name)
		}
	}
	return idle
}

// ParseSpec builds a Plan from a comma-separated key=value chaos spec, the
// form every tool's -chaos flag takes, e.g.
//
//	seed=42,flipread=0.001,failsync=3
//	seed=7,tornwrite=5,crashop=40
//	seed=1,resetp=0.01,opdelay=5ms
//
// Keys: seed, failopen, failwrite, tornwrite, failsync, crashop (ints);
// writeerr, shortwrite, flipreadp, resetp, dropp, dupp (probabilities in
// [0,1]); flipread (int N); opdelay (duration). Counts and the delay are not
// negative. Unknown keys and out-of-range values are errors, so typos fail
// loudly.
func ParseSpec(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	keys := p.keys()
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return p, fmt.Errorf("faults: bad spec element %q (want key=value)", kv)
		}
		var err error
		i := slices.IndexFunc(keys, func(key specKey) bool { return key.name == k })
		switch {
		case k == "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case i < 0:
			return p, fmt.Errorf("faults: unknown spec key %q", k)
		case keys[i].delay != nil:
			if *keys[i].delay, err = time.ParseDuration(v); err == nil && *keys[i].delay < 0 {
				err = errors.New("negative")
			}
		case keys[i].count != nil:
			if *keys[i].count, err = strconv.Atoi(v); err == nil && *keys[i].count < 0 {
				err = errors.New("negative")
			}
		default:
			f := keys[i].prob
			if *f, err = strconv.ParseFloat(v, 64); err == nil && !(*f >= 0 && *f <= 1) { // a NaN fails this too
				err = errors.New("not a probability in [0,1]")
			}
		}
		if err != nil {
			return p, fmt.Errorf("faults: bad spec value %q: %v", kv, err)
		}
	}
	return p, nil
}
