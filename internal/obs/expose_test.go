package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestPrometheusGolden locks the exposition format: family ordering, label
// rendering, histogram bucket cumulation.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zeta_total", "last by name").Add(3)
	reg.Counter("alpha_events_total", "events by class", L("class", "AADup")).Add(5)
	reg.Counter("alpha_events_total", "", L("class", "WWDup")).Add(7)
	reg.Gauge("beta_open", "open things").Set(2)
	h := reg.Histogram("gamma_seconds", "latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(5) // overflow

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP alpha_events_total events by class
# TYPE alpha_events_total counter
alpha_events_total{class="AADup"} 5
alpha_events_total{class="WWDup"} 7
# HELP beta_open open things
# TYPE beta_open gauge
beta_open 2
# HELP gamma_seconds latency
# TYPE gamma_seconds histogram
gamma_seconds_bucket{le="0.01"} 2
gamma_seconds_bucket{le="0.1"} 2
gamma_seconds_bucket{le="1"} 3
gamma_seconds_bucket{le="+Inf"} 4
gamma_seconds_sum 5.51
gamma_seconds_count 4
# HELP zeta_total last by name
# TYPE zeta_total counter
zeta_total 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPrometheusLabeledHistogram(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("stage_seconds", "", []float64{1}, L("stage", "seal")).Observe(0.5)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`stage_seconds_bucket{stage="seal",le="1"} 1`,
		`stage_seconds_bucket{stage="seal",le="+Inf"} 1`,
		`stage_seconds_sum{stage="seal"} 0.5`,
		`stage_seconds_count{stage="seal"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("missing %q in:\n%s", want, sb.String())
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total", "").Inc()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "served_total 1") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d (len %d)", code, len(body))
	}
}

func TestServe(t *testing.T) {
	reg := NewRegistry()
	s, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}
