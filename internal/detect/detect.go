// Package detect is a streaming anomaly detector over the classifier's
// output: the taxonomy of "Internet Routing Instability" turned into a
// real-time feature extractor, in the spirit of the novelty-detection
// literature the ROADMAP cites (Lychev et al.'s destabilizing attacks,
// Marais & Marwala's worm prediction from update-rate novelty).
//
// The detector buckets classified events into fixed windows on four
// channels — per-(peer, prefix, class) fine keys, per-(peer, class),
// global per-class volume, and a per-prefix origin channel (MOAS) — and
// maintains an exponentially-decayed rate baseline (EWMA mean + variance)
// per key. Each finalized window yields a novelty score
//
//	z = (count − mean) / max(σ, √mean, 1)
//
// and alerts open with hysteresis: a window must clear both the z-score
// threshold zOn and an absolute count floor to open, stays open while
// windows clear zOff, and closes after maxGap silent windows. Baselines
// freeze while a key is alerting, so an anomaly cannot teach the detector
// that it is normal. The origin channel is pure novelty: a never-seen
// origin announcing an established prefix (multi-origin conflict) alerts
// regardless of rate.
//
// Concurrency contract: Add, Advance and Finish each take the detector's
// lock, so they are safe from any goroutine. Add only performs commutative
// window counting. Advance and Finish — which finalize
// windows in ascending order with sorted keys and therefore produce a
// deterministic alert stream — must be called at day ends, after every Add
// for the finalized span has returned; the pipeline's hooks call all three
// from its one goroutine.
package detect

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/netaddr"
	"instability/internal/obs"
)

// Channel names one of the detector's aggregation planes.
type Channel uint8

// Detection channels.
const (
	// ChanKey is the fine-grained (peer, prefix, class) rate channel,
	// restricted to the forwarding classes (AADiff, WADiff) — the
	// signature of targeted path churn such as poisoning.
	ChanKey Channel = iota
	// ChanPeer is the per-(peer, class) rate channel: leaks, session
	// storms, and per-peer floods surface here.
	ChanPeer
	// ChanGlobal is the exchange-wide per-class volume channel: load
	// coupling (worm propagation) surfaces here.
	ChanGlobal
	// ChanOrigin is the per-prefix origin-novelty (MOAS) channel: a
	// prefix announced by an origin AS never previously seen for it.
	ChanOrigin
)

// String names the channel.
func (c Channel) String() string {
	switch c {
	case ChanKey:
		return "key"
	case ChanPeer:
		return "peer"
	case ChanGlobal:
		return "global"
	case ChanOrigin:
		return "origin"
	}
	return "channel?"
}

// Key identifies one monitored series. For rate channels Peer/Prefix are
// filled per the channel's granularity; for ChanOrigin, Peer holds the
// conflicting origin AS and Prefix the contested prefix.
type Key struct {
	Chan   Channel
	Peer   bgp.ASN
	Prefix netaddr.Prefix
	Class  core.Class
}

// A packed key is one machine word, chan(2) | peer(16) | prefix Key(40) |
// class(3), whose numeric order is channel, peer, prefix (Compare), class.
const (
	prefixShift = 3                // above the class
	peerShift   = prefixShift + 40 // above the prefix Key
	chanShift   = peerShift + 16   // above the peer
	prefixMask  = 1<<40 - 1
)

// pack returns k as one packed word.
func pack(k Key) uint64 {
	return uint64(k.Chan)<<chanShift | uint64(k.Peer)<<peerShift | k.Prefix.Key()<<prefixShift | uint64(k.Class)
}

// unpack inverts pack.
func unpack(x uint64) Key {
	return Key{
		Chan:   Channel(x >> chanShift),
		Peer:   bgp.ASN(x >> peerShift),
		Prefix: netaddr.PrefixFromKey(x >> prefixShift & prefixMask),
		Class:  core.Class(x & 7),
	}
}

// Config parameterizes a Detector. Every program passes the zero value,
// which selects defaults; only this package's tests change fields, starting
// from defaults.
type Config struct {
	// window is the counting-bucket width (default 10 minutes — the
	// paper's fine-grained analysis granularity).
	window time.Duration
	// halfLife is the baseline memory in windows: an observation's
	// weight halves every halfLife windows (default 36, six hours at
	// the default window).
	halfLife int
	// zOn and zOff are the hysteresis thresholds on the novelty score
	// (defaults 8 and 3).
	zOn, zOff float64
	// minCountKey/Peer/Global are per-channel absolute count floors a
	// window must also clear to open an alert (defaults 12, 24, 64).
	// Pathological classes (AADup, WWDup) use twice the floor: they are
	// the noisy bulk of a healthy-unhealthy 1996 stream.
	minCountKey, minCountPeer, minCountGlobal float64
	// keyPersistence is the number of consecutive anomalous windows a
	// ChanKey or ChanPeer series needs before an alert opens (default 2).
	// Legitimate flap episodes produce intense single-window bursts on one
	// (peer, prefix) key — the unjittered-timer interleave artifact — and
	// those bursts bleed into the per-peer aggregate too, while targeted
	// attacks sustain the churn across windows. The global and origin
	// channels stay immediate.
	keyPersistence int
	// warmup suppresses alerting until this much stream time has passed
	// the first event (default 36h), so the initial table transfer and
	// cold baselines cannot alert.
	warmup time.Duration
	// maxGap closes an alert after this many consecutive windows without
	// an anomalous observation (default 3).
	maxGap int
	// establishAge is how old a prefix must be before a never-seen
	// origin for it is treated as a MOAS conflict rather than a
	// legitimate new origination (default 24h).
	establishAge time.Duration
}

// defaults is the configuration New gives the zero Config.
var defaults = Config{
	window: 10 * time.Minute, halfLife: 36, zOn: 8, zOff: 3,
	minCountKey: 12, minCountPeer: 24, minCountGlobal: 64,
	keyPersistence: 2, warmup: 36 * time.Hour, maxGap: 3, establishAge: 24 * time.Hour,
}

// Alert is one detected anomaly episode: a run of anomalous windows on
// one key, closed after maxGap quiet windows (or at Finish).
type Alert struct {
	Key Key `json:"-"`

	Channel string  `json:"channel"`
	Peer    bgp.ASN `json:"peer,omitempty"`
	Prefix  string  `json:"prefix,omitempty"`
	Class   string  `json:"class,omitempty"`
	// Start is the start of the first anomalous window; End the end of
	// the last.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Windows is the number of anomalous windows in the episode.
	Windows int `json:"windows"`
	// Records is the event count summed over the anomalous windows.
	Records int64 `json:"records"`
	// Peak is the maximum novelty score (z for rate channels, the
	// window observation count for origin conflicts).
	Peak float64 `json:"peak"`
	// Baseline is the key's EWMA rate per window when the alert opened.
	Baseline float64 `json:"baseline"`
}

type activeAlert struct {
	startWin, lastWin int64
	windows           int
	records           int64
	peak              float64
	baseMean          float64
}

type baseline struct {
	mean, varr float64
	lastWin    int64
	// run counts consecutive anomalous windows not yet promoted to an
	// alert (the ChanKey persistence requirement).
	run int
	act *activeAlert
}

// Detector metrics.
var (
	obsDetEvents = obs.Default().Counter("irtl_detect_events_total",
		"Classified events observed by the anomaly detector.")
	obsDetWindows = obs.Default().Counter("irtl_detect_windows_total",
		"Detection windows finalized across all keys.")
	obsDetActive = obs.Default().Gauge("irtl_detect_active_alerts",
		"Alert episodes currently open.")
	obsDetKeys = obs.Default().Gauge("irtl_detect_keys",
		"Monitored (channel, peer, prefix, class) series with a baseline.")
	obsDetAlerts = [...]*obs.Counter{
		ChanKey:    obs.Default().Counter("irtl_detect_alerts_total", "Alert episodes emitted.", obs.L("channel", "key")),
		ChanPeer:   obs.Default().Counter("irtl_detect_alerts_total", "Alert episodes emitted.", obs.L("channel", "peer")),
		ChanGlobal: obs.Default().Counter("irtl_detect_alerts_total", "Alert episodes emitted.", obs.L("channel", "global")),
		ChanOrigin: obs.Default().Counter("irtl_detect_alerts_total", "Alert episodes emitted.", obs.L("channel", "origin")),
	}
)

// Detector is the streaming anomaly detector. See the package comment for
// the concurrency contract.
type Detector struct {
	cfg     Config
	winNs   int64
	alpha   float64 // EWMA weight per window
	estWins int64   // establishAge in windows
	warmNs  int64

	mu sync.Mutex
	// pend holds each not-yet-finalized window's counts by packed key, all
	// four channels in one map (an origin sighting under the key it alerts
	// on).
	pend map[int64]map[uint64]int64
	last map[uint64]int64 // the newest window, which sizes the next one's map
	// cur is last while it is still pending (nil once finalized), and curW
	// its window: an event in the newest window skips the pend probe.
	cur      map[uint64]int64
	curW     int64
	base     map[uint64]*baseline
	alerting map[uint64]struct{}
	// born maps a prefix's Key to the first finalized window that sighted
	// an origin for it; known holds the ChanOrigin key of every origin
	// accepted for its prefix. Both only grow.
	born      map[uint64]int64
	known     map[uint64]struct{}
	firstNano int64
	haveFirst bool
	finalized int64 // all windows < finalized are processed
	haveFinal bool
	alerts    []Alert
}

// New returns a detector with cfg (zero value = defaults).
func New(cfg Config) *Detector {
	if cfg == (Config{}) {
		cfg = defaults
	}
	d := &Detector{
		cfg:      cfg,
		winNs:    cfg.window.Nanoseconds(),
		alpha:    1 - math.Exp(math.Ln2/float64(cfg.halfLife)*-1),
		warmNs:   cfg.warmup.Nanoseconds(),
		pend:     make(map[int64]map[uint64]int64),
		base:     make(map[uint64]*baseline),
		alerting: make(map[uint64]struct{}),
		born:     make(map[uint64]int64),
		known:    make(map[uint64]struct{}),
	}
	d.estWins = int64(cfg.establishAge / cfg.window)
	if d.estWins < 1 {
		d.estWins = 1
	}
	return d
}

func (d *Detector) windowOf(t time.Time) int64 {
	ns := t.UnixNano()
	w := ns / d.winNs
	if ns < 0 && ns%d.winNs != 0 {
		w--
	}
	return w
}

// Add observes one classified event. Safe for concurrent use. A sighting of
// an origin already known for its prefix is not counted: its evaluation
// would change nothing.
func (d *Detector) Add(ev core.Event) {
	rec := &ev.Record
	switch rec.Type {
	case collector.Announce, collector.Withdraw:
	default:
		return
	}
	w := d.windowOf(rec.Time)
	ns := rec.Time.UnixNano()

	d.mu.Lock()
	defer d.mu.Unlock()
	obsDetEvents.Inc()
	if !d.haveFirst || ns < d.firstNano {
		d.firstNano, d.haveFirst = ns, true
	}
	pd := d.cur
	if pd == nil || w != d.curW {
		if pd = d.pend[w]; pd == nil {
			pd = make(map[uint64]int64, len(d.last))
			d.pend[w], d.last = pd, pd
			d.cur, d.curW = pd, w
		}
	}
	pd[pack(Key{Chan: ChanGlobal, Class: ev.Class})]++
	pd[pack(Key{Chan: ChanPeer, Peer: rec.PeerAS, Class: ev.Class})]++
	if ev.Class.IsForwarding() {
		pd[pack(Key{Chan: ChanKey, Peer: rec.PeerAS, Prefix: rec.Prefix, Class: ev.Class})]++
	}
	if rec.Type == collector.Announce {
		if origin, ok := rec.Attrs.Path.Origin(); ok {
			k := pack(Key{Chan: ChanOrigin, Peer: origin, Prefix: rec.Prefix})
			if _, ok := d.known[k]; !ok {
				pd[k]++
			}
		}
	}
}

// warmedAt reports whether windows starting at window w are past warmup.
func (d *Detector) warmedAt(w int64) bool {
	return d.haveFirst && w*d.winNs >= d.firstNano+d.warmNs
}

// minCount returns the absolute floor for (channel, class).
func (d *Detector) minCount(ch Channel, cl core.Class) float64 {
	var m float64
	switch ch {
	case ChanKey:
		m = d.cfg.minCountKey
	case ChanPeer:
		m = d.cfg.minCountPeer
	default:
		m = d.cfg.minCountGlobal
	}
	if cl.IsPathological() {
		m *= 2
	}
	return m
}

// decayTo rolls b's baseline forward through zero-count windows up to (but
// not including) window w. Frozen while an alert is active.
func (d *Detector) decayTo(b *baseline, w int64) {
	if b.act != nil {
		b.lastWin = w
		return
	}
	gap := w - b.lastWin
	if gap <= 0 {
		return
	}
	// Consecutive windows (gap 1) have no silence between them; only the
	// gap-1 windows strictly between lastWin and w were zero-count.
	silent := gap - 1
	if silent > 0 {
		b.run = 0 // a silent window breaks any anomalous run
		if silent > 512 {
			// Beyond 512 halvings-worth of silence the baseline is
			// numerically dead; reset instead of looping.
			b.mean, b.varr = 0, 0
		} else {
			for i := int64(0); i < silent; i++ {
				diff := -b.mean
				incr := d.alpha * diff
				b.mean += incr
				b.varr = (1 - d.alpha) * (b.varr + diff*incr)
			}
		}
	}
	b.lastWin = w
}

// observe folds count x at window w into b (no alert active).
func (d *Detector) observe(b *baseline, w int64, x float64) {
	// Winsorize: clamp the observation at mean+4σ before folding it in, so
	// the decaying tail of a closed episode cannot inflate the variance
	// enough to mask the next surge (robust-EWMA practice).
	if cap := b.mean + 4*sigmaOf(b); x > cap {
		x = cap
	}
	diff := x - b.mean
	incr := d.alpha * diff
	b.mean += incr
	b.varr = (1 - d.alpha) * (b.varr + diff*incr)
	b.lastWin = w
}

// sigmaOf is the scoring deviation: sample σ floored by the Poisson √mean
// and an absolute floor of one record per window.
func sigmaOf(b *baseline) float64 {
	sigma := math.Sqrt(b.varr)
	if f := math.Sqrt(b.mean); f > sigma {
		sigma = f
	}
	if sigma < 1 {
		sigma = 1
	}
	return sigma
}

// score computes the novelty score of count x against baseline b.
func score(b *baseline, x float64) float64 {
	return (x - b.mean) / sigmaOf(b)
}

// evalCount processes one finalized (packed key, window, count)
// observation. Caller holds d.mu.
func (d *Detector) evalCount(k uint64, w int64, x float64) {
	b := d.base[k]
	if b == nil {
		b = &baseline{lastWin: w}
		d.base[k] = b
	}
	d.decayTo(b, w)
	z := score(b, x)
	if act := b.act; act != nil {
		if z >= d.cfg.zOff {
			act.lastWin = w
			act.windows++
			act.records += int64(x)
			if z > act.peak {
				act.peak = z
			}
			return
		}
		d.closeAlert(k, b)
		// The closing observation is ordinary traffic; learn it.
	}
	if ch, cl := Channel(k>>chanShift), core.Class(k&7); z >= d.cfg.zOn && x >= d.minCount(ch, cl) && d.warmedAt(w) {
		need := 1
		if ch == ChanKey || ch == ChanPeer {
			need = d.cfg.keyPersistence
		}
		b.run++
		b.lastWin = w // anomalous precursors freeze the baseline too
		if b.run < need {
			return
		}
		b.run = 0
		b.act = &activeAlert{
			startWin: w, lastWin: w,
			windows: 1, records: int64(x),
			peak: z, baseMean: b.mean,
		}
		d.alerting[k] = struct{}{}
		return
	}
	b.run = 0
	d.observe(b, w, x)
}

// evalOrigin processes one finalized (origin, prefix) sighting, packed as
// its ChanOrigin key k: the MOAS novelty rule. Caller holds d.mu.
func (d *Detector) evalOrigin(k uint64, w int64, n int64) {
	pk := k >> prefixShift & prefixMask
	first, ok := d.born[pk]
	if !ok {
		d.born[pk] = w
		d.known[k] = struct{}{}
		return
	}
	if _, ok := d.known[k]; ok {
		return
	}
	if w-first < d.estWins || !d.warmedAt(w) {
		// Young prefix or cold detector: accept the origin as
		// legitimate (new originations, initial transfer).
		d.known[k] = struct{}{}
		return
	}
	// A never-seen origin for an established prefix. The origin is NOT
	// added to the known set: while the conflict persists the alert
	// extends, and a recurrence after closure re-alerts.
	b := d.base[k]
	if b == nil {
		b = &baseline{lastWin: w}
		d.base[k] = b
	}
	if act := b.act; act != nil {
		act.lastWin = w
		act.windows++
		act.records += n
		if float64(n) > act.peak {
			act.peak = float64(n)
		}
		return
	}
	b.act = &activeAlert{
		startWin: w, lastWin: w,
		windows: 1, records: n, peak: float64(n),
	}
	b.lastWin = w
	d.alerting[k] = struct{}{}
}

// closeAlert emits the active episode of packed key pk. Caller holds d.mu.
func (d *Detector) closeAlert(pk uint64, b *baseline) {
	act := b.act
	b.act = nil
	b.lastWin = act.lastWin
	delete(d.alerting, pk)
	k := unpack(pk)

	a := Alert{
		Key:      k,
		Channel:  k.Chan.String(),
		Peer:     k.Peer,
		Start:    time.Unix(0, act.startWin*d.winNs).UTC(),
		End:      time.Unix(0, (act.lastWin+1)*d.winNs).UTC(),
		Windows:  act.windows,
		Records:  act.records,
		Peak:     act.peak,
		Baseline: act.baseMean,
	}
	if k.Prefix.IsValid() && k.Prefix != (netaddr.Prefix{}) {
		a.Prefix = k.Prefix.String()
	}
	if k.Chan != ChanOrigin {
		a.Class = k.Class.String()
	}
	d.alerts = append(d.alerts, a)
	obsDetAlerts[k.Chan].Inc()
	obsDetActive.SetInt(int64(len(d.alerting)))
}

// Advance finalizes every window that ends at or before now, evaluating
// pending counts in deterministic order and closing alerts whose keys
// have been quiet for maxGap windows. Call from the feeder at barriers
// (e.g. day ends): all Adds for the finalized span must have completed.
func (d *Detector) Advance(now time.Time) {
	target := d.windowOf(now.Add(1)) // windows strictly before this are complete
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advanceLocked(target)
}

func (d *Detector) advanceLocked(target int64) {
	// finalized never moves back, but a late Add may have reopened a window
	// below it: a target at or behind it still evaluates those.
	if d.haveFinal {
		target = max(target, d.finalized)
	}
	wins := make([]int64, 0, len(d.pend))
	for w := range d.pend {
		if w < target {
			wins = append(wins, w)
		}
	}
	if len(wins) == 0 && d.haveFinal && target == d.finalized {
		return
	}
	slices.Sort(wins)
	var keys []uint64
	for _, w := range wins {
		pd := d.pend[w]
		delete(d.pend, w)
		if w == d.curW {
			d.cur = nil // finalized: a late event opens a fresh window
		}
		// In packed order: the key and peer channels, global, origin.
		keys = keys[:0]
		for k := range pd {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			if Channel(k>>chanShift) == ChanOrigin {
				d.evalOrigin(k, w, pd[k])
			} else {
				d.evalCount(k, w, float64(pd[k]))
			}
		}
		obsDetWindows.Inc()
		// Sweep after each window so an episode closes maxGap quiet
		// windows after its last anomalous one, however coarse the
		// Advance cadence — a later burst must not be bridged into it.
		d.sweepLocked(w+1, int64(d.cfg.maxGap))
	}
	// Close alerts that have gone quiet: maxGap fully-finalized windows
	// with no anomalous observation.
	d.sweepLocked(target, int64(d.cfg.maxGap))
	d.finalized, d.haveFinal = target, true
	obsDetKeys.SetInt(int64(len(d.base)))
	obsDetActive.SetInt(int64(len(d.alerting)))
}

// sweepLocked closes alerting keys quiet for at least gap windows before
// target.
func (d *Detector) sweepLocked(target, gap int64) {
	if len(d.alerting) == 0 {
		return
	}
	stale := make([]uint64, 0, len(d.alerting))
	for k := range d.alerting {
		if b := d.base[k]; b.act != nil && b.act.lastWin+gap < target {
			stale = append(stale, k)
		}
	}
	slices.Sort(stale)
	for _, k := range stale {
		d.closeAlert(k, d.base[k])
	}
}

// Finish finalizes every pending window and closes every open alert,
// returning the complete alert list. The detector remains usable for
// reads but should not be fed further.
func (d *Detector) Finish() []Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	var target int64
	for w := range d.pend {
		if w+1 > target {
			target = w + 1
		}
	}
	if d.haveFinal && d.finalized > target {
		target = d.finalized
	}
	d.advanceLocked(target)
	d.sweepLocked(target, -1<<30) // close everything still open
	obsDetActive.SetInt(0)
	return d.alertsLocked()
}

func (d *Detector) alertsLocked() []Alert {
	out := make([]Alert, len(d.alerts))
	copy(out, d.alerts)
	slices.SortFunc(out, func(a, b Alert) int {
		if c := a.Start.Compare(b.Start); c != 0 {
			return c
		}
		return cmp.Compare(pack(a.Key), pack(b.Key))
	})
	return out
}
