package benchkit

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Quartiles returns the three quartiles of vals the way Python's
// statistics.quantiles(vals, n=4) does (the exclusive method), which is how
// the driver measures spread. Fewer than two values have no spread: all
// three are the value itself.
func Quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		p := float64(i) * float64(len(s)+1) / 4
		j := min(max(int(math.Floor(p)), 1), len(s)-1)
		return s[j-1] + (s[j]-s[j-1])*(p-float64(j))
	}
	return at(1), at(2), at(3)
}

// Spread is the distance between the first and third quartile as a share of
// the median.
func Spread(vals []float64) float64 {
	q1, q2, q3 := Quartiles(vals)
	return share(q3-q1, math.Abs(q2))
}

// bounds reads each end-to-end metric's direction and bound from the
// BENCHMARK.json at path.
func bounds(path string) (map[string]MetricDef, []string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]MetricDef)
	var order []string
	for _, m := range doc.EndToEnd {
		out[m.Name] = MetricDef{m.Name, m.Unit, m.Better, m.Bound}
		order = append(order, m.Name)
	}
	return out, order, nil
}

func loadDoc(path string) (*Doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// values gathers metric's value from every untraced run of workload.
func (d *Doc) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range d.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// Verdicts of one (metric, workload) comparison.
const (
	VerdictOK         = "ok"
	VerdictRegression = "REGRESSION"
	VerdictUnresolved = "unresolved"
)

// judge compares candidate runs b against base runs a of one metric: it is a
// regression when b's median is on the wrong side of a's by more than the
// bound, as a share of a's. A difference is unresolved, not a pass or a
// regression, when either side's own spread is wider than the bound — unless
// every run of b reads better than every run of a.
func judge(a, b []float64, def MetricDef) (spread float64, verdict string) {
	_, ma, _ := Quartiles(a)
	_, mb, _ := Quartiles(b)
	worse := share(mb-ma, ma)
	if def.Better == "higher" {
		worse = -worse
	}
	spread = max(Spread(a), Spread(b))
	if spread > def.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if (def.Better == "higher") != (y > x) || x == y {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return spread, VerdictUnresolved
		}
	}
	if worse > def.Bound {
		return spread, VerdictRegression
	}
	return spread, VerdictOK
}

// Compare prints, for every (end-to-end metric, workload) both documents
// hold, the ratio of medians with its base, and reports whether any pair
// regressed past the bound the manifest stores.
func Compare(w io.Writer, manifest, pathA, pathB string) (regressed bool, err error) {
	defs, order, err := bounds(manifest)
	if err != nil {
		return false, err
	}
	a, err := loadDoc(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadDoc(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-11s %-14s %14s %14s %7s %7s %6s  %s\n", "workload", "metric", "base median", "new median", "ratio", "spread", "bound", "verdict")
	for _, wl := range Workloads {
		for _, name := range order {
			va, vb := a.values(wl.Name, name), b.values(wl.Name, name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			def := defs[name]
			_, ma, _ := Quartiles(va)
			_, mb, _ := Quartiles(vb)
			spread, verdict := judge(va, vb, def)
			regressed = regressed || verdict == VerdictRegression
			fmt.Fprintf(w, "%-11s %-14s %14.4f %14.4f %7.3f %7.3f %6.2f  %s (n=%d/%d %s, %s is better)\n",
				wl.Name, name, ma, mb, share(mb, ma), spread, def.Bound, verdict, len(va), len(vb), def.Unit, def.Better)
		}
	}
	return regressed, nil
}
