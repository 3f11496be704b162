package core

import (
	"sort"
	"time"

	"instability/internal/netaddr"
)

// EpisodeTracker groups a route's updates into flap episodes: runs of
// events for one (peer, prefix) separated by gaps no longer than MaxGap.
// The paper's §4 reports that "the persistence of most pathological BGP
// behaviors is under five minutes"; this tracker measures exactly that
// distribution.
type EpisodeTracker struct {
	// MaxGap splits episodes (default five minutes).
	MaxGap time.Duration
	// MinEvents is the smallest run that counts as an episode rather than
	// an isolated update (default 2).
	MinEvents int

	open map[stateKey]*episode
	// Durations collects closed episodes' durations.
	Durations []time.Duration
	// Events collects closed episodes' event counts.
	Events []int
}

// stateKey names one route: a (peer, prefix) pair.
type stateKey struct {
	peer   PeerKey
	prefix netaddr.Prefix
}

type episode struct {
	start, last time.Time
	events      int
}

// NewEpisodeTracker returns a tracker with the paper's parameters.
func NewEpisodeTracker() *EpisodeTracker {
	return &EpisodeTracker{
		MaxGap:    5 * time.Minute,
		MinEvents: 2,
		open:      make(map[stateKey]*episode),
	}
}

// Observe folds one classified event in. Only instability and pathological
// classes participate; Other events (first announcements, clean
// withdrawals) neither start nor extend episodes.
func (t *EpisodeTracker) Observe(ev Event) {
	if ev.Class == Other {
		return
	}
	key := stateKey{peer: PeerKeyOf(ev.Record), prefix: ev.Record.Prefix}
	now := ev.Record.Time
	ep := t.open[key]
	if ep != nil && now.Sub(ep.last) > t.MaxGap {
		t.close(key, ep)
		ep = nil
	}
	if ep == nil {
		t.open[key] = &episode{start: now, last: now, events: 1}
		return
	}
	ep.last = now
	ep.events++
}

// Flush closes every open episode (call at the end of the stream).
func (t *EpisodeTracker) Flush() {
	for key, ep := range t.open {
		t.close(key, ep)
	}
}

func (t *EpisodeTracker) close(key stateKey, ep *episode) {
	delete(t.open, key)
	if ep.events < t.MinEvents {
		return
	}
	t.Durations = append(t.Durations, ep.last.Sub(ep.start))
	t.Events = append(t.Events, ep.events)
}

// ShareUnder returns the fraction of closed episodes shorter than d.
func (t *EpisodeTracker) ShareUnder(d time.Duration) float64 {
	if len(t.Durations) == 0 {
		return 0
	}
	n := 0
	for _, dur := range t.Durations {
		if dur < d {
			n++
		}
	}
	return float64(n) / float64(len(t.Durations))
}

// MedianDuration returns the median episode duration.
func (t *EpisodeTracker) MedianDuration() time.Duration {
	if len(t.Durations) == 0 {
		return 0
	}
	ds := append([]time.Duration(nil), t.Durations...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
