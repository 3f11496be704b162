package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by label
// key, histograms as cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshot() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range r.sortedSeries(f) {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.kind {
	case KindCounter, KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(s.labels, "", ""), formatFloat(seriesValue(s)))
		return err
	case KindHistogram:
		h := s.hist
		cum := uint64(0)
		for i, edge := range h.edges {
			cum += h.buckets[i].Load()
			le := formatFloat(edge)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(s.labels, "le", le), cum); err != nil {
				return err
			}
		}
		cum += h.buckets[len(h.edges)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(s.labels, "le", "+Inf"), cum); err != nil {
			return err
		}
		ls := labelString(s.labels, "", "")
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n", f.name, ls, formatFloat(h.Sum()), f.name, ls, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// labelString renders {k="v",...}, optionally appending one extra label
// (the histogram le). Returns "" for an empty set.
func labelString(labels []Label, extraKey, extraValue string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, escapeValue(l.Value))
	}
	if extraKey != "" {
		if len(labels) > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", extraKey, extraValue)
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeValue(s string) string {
	// %q adds quote escaping; newlines must become \n per the format.
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
