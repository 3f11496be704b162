package detect

import (
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/netaddr"
)

// testConfig shrinks the windows so a lifecycle fits in a few hundred
// synthetic events: 1-minute windows, 30-minute warmup, 20-minute
// establishment age.
func testConfig() Config {
	cfg := defaults
	cfg.window = time.Minute
	cfg.halfLife = 10
	cfg.warmup = 30 * time.Minute
	cfg.establishAge = 20 * time.Minute
	return cfg
}

var t0 = time.Date(1996, 5, 1, 0, 0, 0, 0, time.UTC)

// withdrawEv builds a rate-channel event that stays off the origin channel.
func withdrawEv(t time.Time, peer bgp.ASN, prefix string, class core.Class) core.Event {
	return core.Event{
		Class: class,
		Record: collector.Record{
			Time: t, Type: collector.Withdraw,
			PeerAS: peer, Prefix: netaddr.MustParsePrefix(prefix),
		},
	}
}

// announceEv builds an announce with the given origin AS as its path.
func announceEv(t time.Time, peer, origin bgp.ASN, prefix string) core.Event {
	return core.Event{
		Class: core.AADup,
		Record: collector.Record{
			Time: t, Type: collector.Announce,
			PeerAS: peer, Prefix: netaddr.MustParsePrefix(prefix),
			Attrs: bgp.Attrs{Path: bgp.PathFromASNs(peer, origin)},
		},
	}
}

// feedRate adds n withdraw events of class cl spread through the window
// starting at ws.
func feedRate(d *Detector, ws time.Time, peer bgp.ASN, cl core.Class, n int) {
	step := time.Minute / time.Duration(n+1)
	for i := 0; i < n; i++ {
		d.Add(withdrawEv(ws.Add(time.Duration(i+1)*step), peer, "10.0.0.0/8", cl))
	}
}

func alertsOn(alerts []Alert, ch Channel) []Alert {
	var out []Alert
	for _, a := range alerts {
		if a.Key.Chan == ch {
			out = append(out, a)
		}
	}
	return out
}

// TestGlobalAlertLifecycle trains a steady global baseline, injects a
// three-window surge, and checks the emitted episode's shape: one alert,
// covering the surge windows, with the pre-surge baseline recorded.
func TestGlobalAlertLifecycle(t *testing.T) {
	d := New(testConfig())
	w := t0
	for i := 0; i < 60; i++ { // warmup + baseline training at 100/window
		feedRate(d, w, 7, core.WADup, 100)
		w = w.Add(time.Minute)
	}
	surgeStart := w
	for i := 0; i < 3; i++ {
		feedRate(d, w, 7, core.WADup, 1000)
		w = w.Add(time.Minute)
	}
	for i := 0; i < 10; i++ { // back to normal, then quiet closes it
		feedRate(d, w, 7, core.WADup, 100)
		w = w.Add(time.Minute)
	}
	d.Advance(w)
	alerts := alertsOn(d.Finish(), ChanGlobal)
	if len(alerts) != 1 {
		t.Fatalf("got %d global alerts %+v, want 1", len(alerts), alerts)
	}
	a := alerts[0]
	if !a.Start.Equal(surgeStart) {
		t.Errorf("alert start %s, want %s", a.Start, surgeStart)
	}
	if a.Windows != 3 || a.Records != 3000 {
		t.Errorf("alert windows=%d records=%d, want 3 and 3000", a.Windows, a.Records)
	}
	if a.Peak < d.Config().zOn {
		t.Errorf("alert peak %.1f below zOn %.1f", a.Peak, d.Config().zOn)
	}
	// The baseline recorded at open is the trained pre-surge rate, and the
	// surge must not have taught the detector: it stays near 100.
	if a.Baseline < 80 || a.Baseline > 120 {
		t.Errorf("alert baseline %.1f, want ~100 (frozen during surge)", a.Baseline)
	}
}

// TestWarmupSuppressesAlerts injects the same surge inside the warmup
// window and expects silence.
func TestWarmupSuppressesAlerts(t *testing.T) {
	d := New(testConfig())
	w := t0
	for i := 0; i < 10; i++ {
		feedRate(d, w, 7, core.WADup, 100)
		w = w.Add(time.Minute)
	}
	for i := 0; i < 3; i++ { // minute 10-13: well inside the 30m warmup
		feedRate(d, w, 7, core.WADup, 1000)
		w = w.Add(time.Minute)
	}
	d.Advance(w)
	if alerts := d.Finish(); len(alerts) != 0 {
		t.Fatalf("got %d alerts during warmup, want 0: %+v", len(alerts), alerts)
	}
}

// TestKeyPersistence checks the ChanPeer two-window requirement: a
// single-window burst (the flap-interleave artifact) stays silent, a
// two-window burst alerts.
func TestKeyPersistence(t *testing.T) {
	runPeer := func(burstWindows int) []Alert {
		cfg := testConfig()
		cfg.minCountGlobal = 1e9 // isolate the peer channel
		d := New(cfg)
		w := t0
		for i := 0; i < 60; i++ {
			feedRate(d, w, 7, core.WADup, 10)
			w = w.Add(time.Minute)
		}
		for i := 0; i < burstWindows; i++ {
			feedRate(d, w, 7, core.WADup, 300)
			w = w.Add(time.Minute)
		}
		for i := 0; i < 10; i++ {
			feedRate(d, w, 7, core.WADup, 10)
			w = w.Add(time.Minute)
		}
		d.Advance(w)
		return alertsOn(d.Finish(), ChanPeer)
	}
	if alerts := runPeer(1); len(alerts) != 0 {
		t.Errorf("single-window burst alerted: %+v", alerts)
	}
	if alerts := runPeer(2); len(alerts) != 1 {
		t.Errorf("got %d peer alerts for a 2-window burst, want 1: %+v", len(alerts), alerts)
	}
}

// TestOriginNovelty checks the MOAS channel: a new origin for an
// established prefix alerts; a new origin for a young prefix does not.
func TestOriginNovelty(t *testing.T) {
	d := New(testConfig())
	w := t0
	// Establish 10.0.0.0/8 from origin 100 through warmup + establish age.
	for i := 0; i < 60; i++ {
		d.Add(announceEv(w.Add(30*time.Second), 7, 100, "10.0.0.0/8"))
		w = w.Add(time.Minute)
	}
	// A young prefix appears, then gains a second origin immediately: fine.
	d.Add(announceEv(w.Add(10*time.Second), 7, 200, "192.168.0.0/16"))
	d.Add(announceEv(w.Add(20*time.Second), 8, 201, "192.168.0.0/16"))
	// The established prefix gains a never-seen origin: MOAS conflict.
	d.Add(announceEv(w.Add(30*time.Second), 8, 666, "10.0.0.0/8"))
	w = w.Add(time.Minute)
	d.Advance(w)
	alerts := alertsOn(d.Finish(), ChanOrigin)
	if len(alerts) != 1 {
		t.Fatalf("got %d origin alerts, want 1: %+v", len(alerts), alerts)
	}
	a := alerts[0]
	if a.Peer != 666 || a.Prefix != "10.0.0.0/8" {
		t.Errorf("origin alert names peer=%d prefix=%s, want 666 and 10.0.0.0/8", a.Peer, a.Prefix)
	}
}

// TestAdvanceIdempotent re-advances over already-finalized windows and
// expects no double-counting.
func TestAdvanceIdempotent(t *testing.T) {
	d := New(testConfig())
	w := t0
	for i := 0; i < 40; i++ {
		feedRate(d, w, 7, core.WADup, 50)
		w = w.Add(time.Minute)
	}
	d.Advance(w)
	d.Advance(w)
	d.Advance(w.Add(-20 * time.Minute)) // going backwards is a no-op
	if n := d.ActiveAlerts(); n != 0 {
		t.Fatalf("ActiveAlerts = %d after steady traffic, want 0", n)
	}
	if alerts := d.Finish(); len(alerts) != 0 {
		t.Fatalf("steady traffic alerted: %+v", alerts)
	}
}

// BenchmarkDetectorAdd measures the per-event intake cost (up to three map
// bumps).
func BenchmarkDetectorAdd(b *testing.B) {
	d := New(Config{})
	evs := make([]core.Event, 4096)
	for i := range evs {
		evs[i] = withdrawEv(t0.Add(time.Duration(i)*200*time.Millisecond),
			bgp.ASN(100+i%16), "10.0.0.0/8", core.WADup)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Add(evs[i%len(evs)])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events_per_sec")
}

// BenchmarkDetectorWindow measures one finalized window end to end: 16
// peer series fed and advanced past, including baseline update and sweep.
func BenchmarkDetectorWindow(b *testing.B) {
	d := New(Config{})
	w := t0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for p := 0; p < 16; p++ {
			d.Add(withdrawEv(w.Add(time.Second), bgp.ASN(100+p), "10.0.0.0/8", core.WADup))
		}
		w = w.Add(10 * time.Minute)
		d.Advance(w)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "windows_per_sec")
}

// Config returns the detector's resolved configuration.
func (d *Detector) Config() Config { return d.cfg }

// Alerts returns the alerts emitted so far, sorted by start time then key.
func (d *Detector) Alerts() []Alert {
	return d.sortedAlerts()
}

// ActiveAlerts returns the number of currently open episodes.
func (d *Detector) ActiveAlerts() int {
	return len(d.alerting)
}

// TestAddAfterAdvanceFinalizedWindow feeds a window, finalizes it, then adds
// a late surge stamped in that finalized window and traffic in the next
// one. The late events open a fresh pending window that Finish evaluates,
// so the surge must alert on the global channel exactly as pinned here; an
// Add that counted them into the already-finalized window would lose them.
func TestAddAfterAdvanceFinalizedWindow(t *testing.T) {
	d := New(testConfig())
	w := t0
	for i := 0; i < 60; i++ { // past warmup, baseline trained at 100/window
		feedRate(d, w, 7, core.WADup, 100)
		w = w.Add(time.Minute)
	}
	late := w.Add(-time.Minute) // the last fed window, finalized below
	d.Advance(w)
	feedRate(d, late, 7, core.WADup, 1000)
	feedRate(d, w, 7, core.WADup, 100)
	alerts := d.Finish()
	if len(alerts) != 1 {
		t.Fatalf("got %d alerts %+v, want one global WADup alert", len(alerts), alerts)
	}
	a := alerts[0]
	if a.Key != (Key{Chan: ChanGlobal, Class: core.WADup}) || !a.Start.Equal(late) ||
		!a.End.Equal(w) || a.Windows != 1 || a.Records != 1000 {
		t.Errorf("alert %+v, want global WADup over [%s, %s), 1 window, 1000 records", a, late, w)
	}
}

// establish announces prefix from origin once a minute for an hour from t0
// (past warmup and establishment age) and finalizes that hour. It returns
// the end of the hour.
func establish(d *Detector, origin bgp.ASN, prefix string) time.Time {
	w := t0
	for i := 0; i < 60; i++ {
		d.Add(announceEv(w.Add(30*time.Second), 7, origin, prefix))
		w = w.Add(time.Minute)
	}
	d.Advance(w)
	return w
}

// TestKnownSightingAddsNoPendingKey checks the intake skip: once an origin
// is known for a prefix, a sighting of it adds no origin key to the
// pending window, while an unknown origin still does.
func TestKnownSightingAddsNoPendingKey(t *testing.T) {
	d := New(testConfig())
	w := establish(d, 100, "10.0.0.0/8")
	d.Add(announceEv(w.Add(10*time.Second), 8, 100, "10.0.0.0/8"))
	origins := func() (keys []Key) {
		for _, pd := range d.pend {
			for k := range pd {
				if Channel(k>>chanShift) == ChanOrigin {
					keys = append(keys, unpack(k))
				}
			}
		}
		return keys
	}
	if keys := origins(); len(keys) != 0 {
		t.Fatalf("a known origin's sighting is pending: %+v", keys)
	}
	d.Add(announceEv(w.Add(20*time.Second), 8, 666, "10.0.0.0/8"))
	want := Key{Chan: ChanOrigin, Peer: 666, Prefix: netaddr.MustParsePrefix("10.0.0.0/8")}
	if keys := origins(); len(keys) != 1 || keys[0] != want {
		t.Fatalf("pending origin keys %+v, want only %+v", keys, want)
	}
}

// TestLateUnknownOriginAlerts finalizes an established prefix's windows,
// then adds a never-seen origin's sighting stamped in the last finalized
// window, and the known origin's in the next one: the late sighting must
// still raise one origin alert on its window.
func TestLateUnknownOriginAlerts(t *testing.T) {
	d := New(testConfig())
	w := establish(d, 100, "10.0.0.0/8")
	late := w.Add(-time.Minute)
	d.Add(announceEv(late.Add(40*time.Second), 8, 666, "10.0.0.0/8"))
	d.Add(announceEv(w.Add(30*time.Second), 7, 100, "10.0.0.0/8"))
	alerts := d.Finish()
	if len(alerts) != 1 {
		t.Fatalf("got %d alerts %+v, want one origin alert", len(alerts), alerts)
	}
	a := alerts[0]
	if a.Key.Chan != ChanOrigin || a.Peer != 666 || a.Prefix != "10.0.0.0/8" ||
		!a.Start.Equal(late) || a.Windows != 1 || a.Records != 1 {
		t.Errorf("alert %+v, want origin 666 on 10.0.0.0/8 from %s, 1 window, 1 record", a, late)
	}
}

// TestLateTrailingUnknownOriginAlerts is TestLateUnknownOriginAlerts with
// nothing after the late sighting: no newer window is pending, so Finish's
// target is the window already finalized, and it must still evaluate the
// reopened window and raise its alert.
func TestLateTrailingUnknownOriginAlerts(t *testing.T) {
	d := New(testConfig())
	w := establish(d, 100, "10.0.0.0/8")
	late := w.Add(-time.Minute)
	d.Add(announceEv(late.Add(40*time.Second), 8, 666, "10.0.0.0/8"))
	alerts := d.Finish()
	if len(alerts) != 1 {
		t.Fatalf("got %d alerts %+v, want one origin alert", len(alerts), alerts)
	}
	a := alerts[0]
	if a.Key.Chan != ChanOrigin || a.Peer != 666 || a.Prefix != "10.0.0.0/8" ||
		!a.Start.Equal(late) || a.Windows != 1 || a.Records != 1 {
		t.Errorf("alert %+v, want origin 666 on 10.0.0.0/8 from %s, 1 window, 1 record", a, late)
	}
}
