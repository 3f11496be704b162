package core

import "instability/internal/obs"

// Register exports the accumulator's live taxonomy tallies into reg as
// func-backed counters:
//
//	irtl_classify_class_total{class=...}  per-class event counts
//	irtl_classify_events_total            all classified events
//
// The functions read the accumulator's atomic totals, so exposition never
// takes a lock and never touches the per-day maps that Add is mutating —
// a scrape during full-rate ingest costs a dozen atomic loads.
// Re-registering (e.g. a fresh pipeline in the same process) rebinds the
// series to the new accumulator.
func (a *Accumulator) Register(reg *obs.Registry) {
	for _, c := range Classes() {
		c := c
		reg.CounterFunc("irtl_classify_class_total",
			"Classified updates per taxonomy class.",
			func() float64 { return float64(a.totals[c].Load()) },
			obs.L("class", c.String()))
	}
	reg.CounterFunc("irtl_classify_events_total",
		"Updates classified by the streaming classifier.",
		func() float64 { return float64(a.TotalEvents()) })
}
