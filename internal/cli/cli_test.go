package cli

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"instability/internal/collector"
)

// commands is every Command under the program name cmd/ builds it as.
var commands = map[string]Command{
	"bgpanalyze":  Analyze,
	"bgpcollect":  Collect,
	"bgpdump":     Dump,
	"bgpreplay":   Replay,
	"bgpserve":    Serve,
	"bgpsim":      Sim,
	"bgpstore":    Store,
	"experiments": Experiments,
}

// TestMainFiles pins every cmd/*/main.go to one call of Main with its own
// name and its own Command, in at most 20 lines. (cmd/bgpbench, the
// benchmark harness, is a module of its own.)
func TestMainFiles(t *testing.T) {
	mains, err := filepath.Glob("../../cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, path := range mains {
		name := filepath.Base(filepath.Dir(path))
		if name == "bgpbench" {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if commands[name] == nil {
			t.Errorf("%s: no Command for %s", path, name)
			continue
		}
		seen++
		if !regexp.MustCompile(`cli\.Main\("` + name + `", cli\.[A-Z]\w*\)`).Match(src) {
			t.Errorf("%s does not call cli.Main(%q, …)", path, name)
		}
		if n := bytes.Count(src, []byte("\n")); n > 20 {
			t.Errorf("%s is %d lines; a main.go is one call to cli.Main", path, n)
		}
	}
	if seen != len(commands) {
		t.Errorf("%d main.go files for %d commands", seen, len(commands))
	}
}

func TestExitCodes(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		ctx  context.Context
		err  error
		want int
	}{
		{context.Background(), nil, 0},
		{context.Background(), flag.ErrHelp, 0},
		{context.Background(), usagef("missing -store"), 2},
		{context.Background(), errors.New("disk on fire"), 1},
		{cancelled, context.Canceled, 130},
	} {
		if got := exitCode("x", c.ctx, c.err, io.Discard); got != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestUsageErrors: every command rejects a bad command line with a
// usageError before it touches anything — a bad -chaos spec included, in
// every mode, and a store flag on a command that does not act on it.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
	}{
		{"bgpanalyze", []string{"-in", "a", "-store", "b"}},
		{"bgpanalyze", []string{"-in", "a", "-chaos", "seed=1"}},
		{"bgpanalyze", []string{"-in", "a", "-parallel", "2"}},
		{"bgpcollect", []string{"-chaos", "bogus"}},
		{"bgpcollect", []string{"-chaos", "resetp=NaN"}},
		{"bgpcollect", []string{"-chaos", "maxdelay=-5ms"}},
		{"bgpcollect", []string{"-chaos", "seed=1,resetp=0.5"}},
		{"bgpcollect", []string{"-store", dir, "-chaos", "seed=1,resetp=0.5"}},
		{"bgpcollect", []string{"-dial", "127.0.0.1:1", "-chaos", "seed=1,dropp=0.1"}},
		{"bgpcollect", []string{"-dial", "127.0.0.1:1", "-chaos", "seed=1,failsync=3"}},
		{"bgpcollect", []string{"-block-cache-bytes", "0"}},
		{"bgpcollect", []string{"-seal-workers", "2"}},
		{"bgpdump", []string{}},
		{"bgpreplay", []string{}},
		{"bgpreplay", []string{"-in", "a", "-chaos", "seed=1"}},
		{"bgpreplay", []string{"-in", "a", "-parallel", "2"}},
		{"bgpreplay", []string{"-in", "a", "-seal-workers", "2"}},
		{"bgpserve", []string{"-no-such-flag"}},
		{"bgpserve", []string{"-store", dir, "-chaos", "bogus=1"}},
		{"bgpserve", []string{"-chaos", "seed=1"}},
		{"bgpserve", []string{"-store", dir, "-chaos", "seed=1,dupp=0.5"}},
		{"bgpserve", []string{"-store", dir, "-workers", "2"}},
		{"bgpserve", []string{"-store", dir, "-seal-workers", "2"}},
		{"bgpsim", []string{"-scale", "huge"}},
		{"bgpstore", []string{"vacuum"}},
		{"bgpstore", []string{"query", "-store", dir, "-chaos", "bogus=1"}},
		{"bgpstore", []string{"query", "-store", dir, "-chaos", "writeerr=7"}},
		{"bgpstore", []string{"ingest", "-store", dir, "-chaos", "seed=1,resetp=0.1", "x.irtl.gz"}},
		{"bgpstore", []string{"query", "-store", dir, "-parallel", "2"}},
		{"bgpstore", []string{"query", "-store", dir, "-prefix", "0.0.0.0/0"}},
		{"bgpstore", []string{"query", "-store", dir, "-scanstats"}},
		{"bgpstore", []string{"ingest", "-store", dir, "-seal-workers", "2", "x.irtl.gz"}},
		{"bgpstore", []string{"compact", "-store", dir, "-seal-workers", "2"}},
		{"bgpstore", []string{"compact", "-store", dir, "-block-cache-bytes", "0"}},
		{"bgpstore", []string{"stats", "-store", dir, "-metrics-addr", ":0"}},
		{"experiments", []string{"-id", "fig99"}},
	} {
		var ue usageError
		if err := commands[c.name](context.Background(), c.args, io.Discard, io.Discard); !errors.As(err, &ue) {
			t.Errorf("%s %q: err = %v, want a usage error", c.name, c.args, err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a rejected command line touched the store: %d entries", len(entries))
	}
}

// TestInterrupt: cancelling the context — what Main does on the first
// signal — makes a reader stop with the context's error and a collector
// close its sessions and sinks and return cleanly.
func TestInterrupt(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "c.irtl.gz")
	if err := Sim(context.Background(), []string{"-out", log, "-scale", "small", "-days", "2", "-q"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Dump(ctx, []string{"-in", log}, io.Discard, io.Discard); !errors.Is(err, context.Canceled) {
		t.Errorf("bgpdump on a cancelled context: %v", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	out, db := filepath.Join(dir, "live.irtl.gz"), filepath.Join(dir, "db")
	j := start(ctx, Collect, []string{"-listen", "127.0.0.1:0", "-out", out, "-store", db, "-report", "0"})
	if err := j.ready(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-j.done; err != nil {
		t.Fatalf("bgpcollect interrupted: %v\n%s", err, j.stderr)
	}
	r, _, err := collector.OpenAny(out)
	if err != nil {
		t.Fatalf("log not closed cleanly: %v", err)
	}
	defer r.Close()
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty collection: Next = %v, want EOF", err)
	}
	var stats bytes.Buffer
	if err := Store(context.Background(), []string{"stats", "-store", db}, &stats, io.Discard); err != nil {
		t.Errorf("store after interrupt: %v", err)
	}

	// A step that cannot stop part-way finishes, and says so.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	var stderr syncBuffer // the notice is logged from its own goroutine
	if err := Store(ctx, []string{"compact", "-store", db}, io.Discard, &stderr); err != nil {
		t.Errorf("bgpstore compact on a cancelled context: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(stderr.String(), "interrupted: finishing the compaction (again to abort)"); {
		if time.Now().After(deadline) {
			t.Fatalf("bgpstore compact on a cancelled context logged %q", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := Experiments(context.Background(), []string{"-id", "routeserver"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "route server session complexity") || strings.Contains(out.String(), "campaign") {
		t.Errorf("-id routeserver printed:\n%s", out.String())
	}
}

// job is a command running on its own goroutine.
type job struct {
	line           string // for TestReadme: the README line, and the command it ran
	name           string
	args           []string
	cancel         context.CancelFunc
	done           chan error
	stdout, stderr *syncBuffer
	ended          bool
}

func start(ctx context.Context, cmd Command, args []string) *job {
	ctx, cancel := context.WithCancel(ctx)
	j := &job{cancel: cancel, done: make(chan error, 1), stdout: &syncBuffer{}, stderr: &syncBuffer{}}
	go func() { j.done <- cmd(ctx, args, j.stdout, j.stderr) }()
	return j
}

// ready waits until a server has logged "listening on", or has failed.
func (j *job) ready() error {
	deadline := time.Now().Add(time.Minute)
	for !strings.Contains(j.stderr.String(), "listening on ") {
		select {
		case err := <-j.done:
			j.done <- err
			return fmt.Errorf("exited before listening: %v\n%s", err, j.stderr)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not listening after a minute\n%s", j.stderr)
		}
	}
	return nil
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// readmeSkips are the README's shell lines TestReadme does not run, and why.
var readmeSkips = map[string]string{
	"git clone <this repo> && cd repo": "fetches this repository",
	"go build ./...":                   "tier-1 itself",
	"go test ./...":                    "tier-1 itself",
	"go test -bench=. -benchmem ./...": "the benchmark suite",
	"go run ./cmd/experiments":         "the seven-month campaign takes a minute; TestExperiments runs one that needs none",
}

// TestReadme runs the README's ```sh recipes through the commands, in order,
// in one scratch directory, as a reader pasting them into one shell would:
//
//   - `go run ./cmd/NAME ARGS` runs commands[NAME] in-process and must
//     succeed; with a trailing `&` it runs in the background, and the next
//     line starts once it has logged "listening on";
//   - `wait` waits for the block's background commands; `kill %N` cancels
//     the Nth — the path Main's signal takes — and waits for it to drain;
//     no background command may outlive its block;
//   - `curl URL` must answer 200 (`| jq .key`: with key in its JSON);
//   - ports 1790, 1791 and 1792 become free ones;
//   - readmeSkips names the lines it does not run; any other line fails it.
//
// Then it checks what the README says about the results: every log a
// command wrote reads back whole, an analysis prints the same over a log, a
// store and a server, and every counted query found something.
func TestReadme(t *testing.T) {
	blocks := readmeBlocks(t)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	r := &readmeRun{t: t, ports: strings.NewReplacer(":1790", ":"+freePort(t), ":1791", ":"+freePort(t), ":1792", ":"+freePort(t))}
	for _, b := range blocks {
		r.block(b)
		if t.Failed() {
			return
		}
	}
	r.checkLogs()
	r.checkSources()
	r.checkCounts()
}

// readmeBlocks returns the README's sh blocks, one command per entry:
// continuation lines joined, blank lines dropped.
func readmeBlocks(t *testing.T) [][]string {
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var blocks [][]string
	var cur []string
	in, cont := false, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "```sh":
			in, cur = true, nil
		case in && line == "```":
			in = false
			blocks = append(blocks, cur)
		case in && line != "":
			joined, more := strings.CutSuffix(line, `\`)
			if cont {
				cur[len(cur)-1] += " " + strings.TrimSpace(joined)
			} else {
				cur = append(cur, strings.TrimSpace(joined))
			}
			cont = more
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 5 {
		t.Fatalf("README has %d sh blocks", len(blocks))
	}
	return blocks
}

type readmeRun struct {
	t     *testing.T
	ports *strings.Replacer
	jobs  []*job // the current block's background commands
	ran   []ran
}

// ran is a command that finished, with what it printed.
type ran struct {
	name   string
	args   []string
	stdout string
}

func (r *readmeRun) block(lines []string) {
	for _, line := range lines {
		if r.line(line); r.t.Failed() {
			break
		}
	}
	for _, j := range r.jobs {
		if !j.ended {
			r.t.Errorf("README: %q outlives its block; end it with wait or kill", j.line)
			j.cancel()
			r.await(j)
		}
	}
	r.jobs = nil
}

func (r *readmeRun) line(line string) {
	t := r.t
	words, err := shellWords(line)
	if err != nil {
		t.Fatalf("README line %q: %v", line, err)
	}
	if len(words) == 0 {
		return
	}
	if why, ok := readmeSkips[strings.Join(words, " ")]; ok {
		t.Logf("not run: %s (%s)", line, why)
		return
	}
	for i := range words {
		words[i] = r.ports.Replace(words[i])
	}
	switch {
	case len(words) == 1 && words[0] == "wait":
		for _, j := range r.jobs {
			r.await(j)
		}
	case len(words) == 2 && words[0] == "kill" && strings.HasPrefix(words[1], "%"):
		n, err := strconv.Atoi(words[1][1:])
		if err != nil || n < 1 || n > len(r.jobs) {
			t.Fatalf("README line %q: no such job", line)
		}
		r.jobs[n-1].cancel()
		r.await(r.jobs[n-1])
	case words[0] == "curl":
		r.curl(line, words[1:])
	case len(words) >= 3 && words[0] == "go" && words[1] == "run" && commands[strings.TrimPrefix(words[2], "./cmd/")] != nil:
		name, args := strings.TrimPrefix(words[2], "./cmd/"), words[3:]
		background := args[len(args)-1] == "&"
		if background {
			args = args[:len(args)-1]
		}
		j := start(context.Background(), commands[name], args)
		j.line, j.name, j.args = line, name, args
		if background {
			r.jobs = append(r.jobs, j)
			if err := j.ready(); err != nil {
				t.Fatalf("README line %q: %v", line, err)
			}
			return
		}
		r.await(j)
	default:
		t.Fatalf("README line %q is neither a command TestReadme runs nor in readmeSkips", line)
	}
}

// await waits for j to finish and records what it printed.
func (r *readmeRun) await(j *job) {
	if j.ended {
		return
	}
	j.ended = true
	select {
	case err := <-j.done:
		if err != nil {
			r.t.Errorf("README line %q: %v\n%s", j.line, err, j.stderr)
		}
	case <-time.After(2 * time.Minute):
		r.t.Fatalf("README line %q: still running after two minutes\n%s", j.line, j.stderr)
	}
	r.ran = append(r.ran, ran{name: j.name, args: j.args, stdout: j.stdout.String()})
}

func (r *readmeRun) curl(line string, args []string) {
	url, pipe, _ := strings.Cut(strings.Join(args, " "), " | ")
	c := &http.Client{Timeout: time.Minute, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Get(url)
	if err != nil {
		r.t.Fatalf("README line %q: %v", line, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 {
		r.t.Fatalf("README line %q: %s, %d bytes, %v\n%s", line, resp.Status, len(body), err, body)
	}
	if pipe == "" {
		return
	}
	key, ok := strings.CutPrefix(pipe, "jq .")
	var obj map[string]json.RawMessage
	if !ok {
		r.t.Fatalf("README line %q: TestReadme pipes curl only into jq .key", line)
	} else if err := json.Unmarshal(body, &obj); err != nil || obj[key] == nil {
		r.t.Errorf("README line %q: no %q in %.200s (%v)", line, key, body, err)
	}
}

// checkLogs: every log a command reports writing ("wrote N records … to F",
// "logged N records to F") is read back whole by the commands that read all
// of it ("F: N records", "classified N records from F" with no query flag).
func (r *readmeRun) checkLogs() {
	written := map[string]string{}
	wrote := regexp.MustCompile(`(?m)^(?:wrote|logged) (\d+) records (?:\(.*\) )?to (\S+?)(?: in \S+)?$`)
	read := regexp.MustCompile(`(?m)^(?:(\S+): (\d+) records|classified (\d+) records from (\S+) .*)$`)
	for _, c := range r.ran {
		for _, m := range wrote.FindAllStringSubmatch(c.stdout, -1) {
			written[m[2]] = m[1]
		}
	}
	checked := 0
	for _, c := range r.ran {
		if slices.ContainsFunc(c.args, func(a string) bool {
			return slices.Contains([]string{"-from", "-to", "-peer", "-origin", "-prefix", "-type"}, a)
		}) {
			continue // a slice of the log
		}
		for _, m := range read.FindAllStringSubmatch(c.stdout, -1) {
			file, n := m[1]+m[4], m[2]+m[3]
			if w, ok := written[file]; ok {
				checked++
				if w != n {
					r.t.Errorf("%s: written with %s records, %s %v read %s", file, w, c.name, c.args, n)
				}
			}
		}
	}
	r.t.Logf("%d log read-backs checked", checked)
	if checked < 4 {
		r.t.Errorf("only %d log read-backs to check; the recipes changed shape", checked)
	}
}

// checkSources: bgpanalyze prints, after its header, the same for one query
// whether it reads a log (-in), a store (-store) or a server (-remote).
func (r *readmeRun) checkSources() {
	byQuery := map[string]map[string]*ran{} // query -> source flag -> run
	for i := range r.ran {
		c := &r.ran[i]
		if c.name != "bgpanalyze" {
			continue
		}
		var query []string
		kind := ""
		for a := 0; a < len(c.args); a++ {
			switch c.args[a] {
			case "-in", "-store", "-remote":
				kind = c.args[a]
				a++
			case "-trace-sample":
				a++
			default:
				query = append(query, c.args[a])
			}
		}
		q := strings.Join(query, " ")
		if byQuery[q] == nil {
			byQuery[q] = map[string]*ran{}
		}
		byQuery[q][kind] = c
	}
	compared, all := 0, 0
	for q, runs := range byQuery {
		if len(runs) < 2 {
			continue
		}
		compared++
		if len(runs) == 3 {
			all++
		}
		var want, wantKind string
		for kind, c := range runs {
			_, got, _ := strings.Cut(c.stdout, "\n\n")
			if want == "" {
				want, wantKind = got, kind
			}
			if got == "" || got != want {
				r.t.Errorf("bgpanalyze %s: %s printed\n%s\n%s printed\n%s", q, kind, got, wantKind, want)
			}
		}
	}
	r.t.Logf("%d analyses checked across sources, %d across all three", compared, all)
	if all == 0 {
		r.t.Error("no bgpanalyze query runs over -in, -store and -remote alike; the recipes changed shape")
	}
}

// checkCounts: a counted query in the README finds something.
func (r *readmeRun) checkCounts() {
	for _, c := range r.ran {
		if c.name != "bgpstore" || c.args[0] != "query" || !strings.Contains(strings.Join(c.args, " "), "-count") {
			continue
		}
		if n, err := strconv.Atoi(strings.TrimSpace(c.stdout)); err != nil || n == 0 {
			r.t.Errorf("bgpstore %v counted %q", c.args, c.stdout)
		}
	}
}

// TestReadmeFlags checks the README's flag table against the tools: every
// flag it lists is in the -h usage of every tool it lists it for (for
// bgpstore, of each subcommand it names, or of all four).
func TestReadmeFlags(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	backticked := regexp.MustCompile("`([^`]+)`")
	usage := map[string]string{}
	rows := 0
	for _, line := range strings.Split(string(readme), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`-") {
			continue
		}
		rows++
		var tools [][]string // tool, then the subcommands named for it
		for _, m := range backticked.FindAllStringSubmatch(cells[2], -1) {
			words := strings.Fields(m[1])
			switch {
			case commands[words[0]] != nil:
				tools = append(tools, words)
			case len(tools) > 0 && tools[len(tools)-1][0] == "bgpstore":
				tools[len(tools)-1] = append(tools[len(tools)-1], words...)
			default:
				t.Errorf("flag table: %q names no tool", m[1])
			}
		}
		var invocations [][]string
		for _, tool := range tools {
			switch {
			case tool[0] == "bgpstore" && len(tool) == 1:
				for _, sub := range []string{"ingest", "query", "compact", "stats"} {
					invocations = append(invocations, []string{"bgpstore", sub})
				}
			case tool[0] == "bgpstore":
				for _, sub := range tool[1:] {
					invocations = append(invocations, []string{"bgpstore", sub})
				}
			default:
				invocations = append(invocations, tool)
			}
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			name := strings.Fields(m[1])[0]
			for _, inv := range invocations {
				key := strings.Join(inv, " ")
				if _, ok := usage[key]; !ok {
					var help bytes.Buffer
					err := commands[inv[0]](context.Background(), append(inv[1:], "-h"), io.Discard, &help)
					if !errors.Is(err, flag.ErrHelp) {
						t.Errorf("%s -h: %v", key, err)
					}
					usage[key] = help.String()
				}
				if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(name) + `(\s|$)`).MatchString(usage[key]) {
					t.Errorf("README flag table lists %s for %s, which has no such flag", name, key)
				}
			}
		}
	}
	if rows < 10 {
		t.Fatalf("found %d flag-table rows in README.md", rows)
	}
}

// shellWords splits a shell line into words: quotes group, # starts a
// comment.
func shellWords(line string) ([]string, error) {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, c := range line {
		switch {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(c)
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		case c == '#' && !inWord:
			return words, nil // a comment, or a line of one: no words
		default:
			cur.WriteRune(c)
			inWord = true
		}
	}
	if quote != 0 {
		return nil, errors.New("unterminated quote")
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words, nil
}

func freePort(t *testing.T) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return strconv.Itoa(ln.Addr().(*net.TCPAddr).Port)
}
