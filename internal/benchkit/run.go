package benchkit

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"instability/internal/workload"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one (workload, trace mode) run.
type Result struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	Seed     int64  `json:"seed"`
	Days     int    `json:"days"`
	Records  int    `json:"records"`

	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Errors    []string `json:"errors,omitempty"`

	Metrics map[string]Metric `json:"metrics"`
	// Samples is how many observations stand behind each metric.
	Samples     map[string]int `json:"samples"`
	WallSeconds float64        `json:"wall_s"`
}

// finish turns the bookkeeping of a run into its Result, keeping exactly the
// metrics of defs.
func finish(e *env, name string, traced bool, r *run, defs []MetricDef, wall time.Duration) *Result {
	res := &Result{
		Workload: name, Trace: traced, Seed: e.opts.Seed, Days: e.camp.Days(), Records: len(e.camp.Recs),
		Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Errors: r.errs,
		Metrics: make(map[string]Metric), Samples: make(map[string]int), WallSeconds: wall.Seconds(),
	}
	for _, m := range defs {
		v := r.metrics[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			res.Errors = append(res.Errors, fmt.Sprintf("metric %s is %v", m.Name, v))
			v = 0
		}
		res.Metrics[m.Name] = Metric{v, m.Unit}
		res.Samples[m.Name] = r.counts[m.Name]
	}
	return res
}

func runOne(e *env, name string, tr *Tracer) (*Result, error) {
	r := newRun()
	t0 := time.Now()
	if err := measure(e, name, r, tr); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	defs := EndToEnd
	if tr != nil {
		defs = PerLayer
		r.set("workload.generate_ns_per_record", e.genSeconds*1e9/float64(len(e.camp.Recs)), 1)
	}
	return finish(e, name, tr != nil, r, defs, time.Since(t0)), nil
}

// RunWorkload sets up for one workload and runs it in the mode opts.Trace
// selects: the driver's unit of work, on the DriverDays campaign unless
// opts.Days says otherwise. A traced run leaves its spans in traceOut.
func RunWorkload(opts Options, name, traceOut string) (*Result, error) {
	sp, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("benchkit: unknown workload %q", name)
	}
	if opts.Days == 0 {
		opts.Days = DriverDays
	}
	var tr *Tracer
	if opts.Trace {
		tr = NewTracer()
	}
	e, err := setUp(opts, sp.needs)
	if err != nil {
		return nil, err
	}
	res, err := runOne(e, name, tr)
	if err == nil && tr != nil && traceOut != "" {
		err = WriteTraces(traceOut, map[string]*Tracer{name: tr})
	}
	return res, err
}

// RunAll is the whole ledger in one go, on the FullDays campaign unless
// opts.Days says otherwise: set up once, every workload untraced for the
// end-to-end metrics, then every workload once more traced for the
// per-layer ones.
func RunAll(opts Options, traceOut string) ([]*Result, error) {
	if opts.Days == 0 {
		opts.Days = FullDays
	}
	var all needs
	for _, w := range Workloads {
		all = all.union(specs[w.Name].needs)
	}
	e, err := setUp(opts, all)
	if err != nil {
		return nil, err
	}
	opts.logf("set-up %.2fs: %d records over %d days, generate %.2fs", e.setupSeconds, len(e.camp.Recs), e.camp.Days(), e.genSeconds)
	var out []*Result
	traces := make(map[string]*Tracer)
	for _, traced := range []bool{false, true} {
		for _, w := range Workloads {
			var tr *Tracer
			if traced {
				tr = NewTracer()
				traces[w.Name] = tr
			}
			res, err := runOne(e, w.Name, tr)
			if err != nil {
				return out, err
			}
			opts.logf("%-10s trace=%-5v %.1fs failed %d/%d", w.Name, traced, res.WallSeconds, res.Failed, res.Attempted)
			out = append(out, res)
		}
	}
	if traceOut != "" {
		err = WriteTraces(traceOut, traces)
	}
	return out, err
}

// RunRecord says where and how a set of runs was taken.
type RunRecord struct {
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	CPU         string  `json:"cpu"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	LoadAvg1    float64 `json:"loadavg_1m"`
	FlushPolicy string  `json:"flush_policy"`
	Loops       string  `json:"loops"`
	Campaign    string  `json:"campaign"`
}

// NewRunRecord reads the host. Anything it cannot find out is "unknown".
func NewRunRecord() RunRecord {
	rec := RunRecord{
		Commit: "unknown", CPU: "unknown", GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), LoadAvg1: -1,
		FlushPolicy: FlushPolicy,
		Loops:       "closed: batch jobs, or at most 2 clients that wait for each reply",
		Campaign:    fmt.Sprintf("workload.DefaultConfig() with its seed %d, cut to each run's days", workload.DefaultConfig().Seed),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rec.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				rec.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				rec.LoadAvg1 = v
			}
		}
	}
	return rec
}

// Print writes the record, warning when the host was already busy.
func (rec RunRecord) Print(w io.Writer) {
	fmt.Fprintf(w, "commit %s  %s  cpu %q  nproc %d  GOMAXPROCS %d  load(1m) %.2f\n",
		rec.Commit, rec.GoVersion, rec.CPU, rec.NProc, rec.GOMAXPROCS, rec.LoadAvg1)
	fmt.Fprintf(w, "campaign: %s\nstore: %s\nloops: %s\n", rec.Campaign, rec.FlushPolicy, rec.Loops)
	if rec.LoadAvg1 > 0.5 {
		fmt.Fprintf(w, "WARNING: 1-minute load average %.2f > 0.5 at start; timings will be noisy\n", rec.LoadAvg1)
	}
}

// Doc is the file `bgpbench -out` writes and `bgpbench compare` reads: a
// record of the host and any number of runs.
type Doc struct {
	Record RunRecord `json:"record"`
	Runs   []*Result `json:"runs"`
}

// AppendDoc adds runs to the document at path, creating it when absent.
func AppendDoc(path string, rec RunRecord, runs []*Result) error {
	doc := Doc{Record: rec}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	doc.Runs = append(doc.Runs, runs...)
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// PrintResults writes every metric of every run by name, with its unit and
// the number of samples behind it.
func PrintResults(w io.Writer, runs []*Result) {
	for _, res := range runs {
		mode := "end-to-end (untraced)"
		if res.Trace {
			mode = "per-layer (traced)"
		}
		fmt.Fprintf(w, "\n== %s — %s — seed %d, %d days, %d records, %.1fs, failed %d/%d\n",
			res.Workload, mode, res.Seed, res.Days, res.Records, res.WallSeconds, res.Failed, res.Attempted)
		names := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := res.Metrics[name]
			if res.Trace && m.Value == 0 && res.Samples[name] == 0 {
				continue // a layer this workload leaves idle
			}
			fmt.Fprintf(w, "  %-40s %14.4f %-9s n=%d\n", name, m.Value, m.Unit, res.Samples[name])
		}
		for _, e := range res.Errors {
			fmt.Fprintf(w, "  MISMATCH: %s\n", e)
		}
	}
}

// DriverLine is the one JSON object the driver reads from the last line of
// standard output.
func DriverLine(res *Result) ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
}
