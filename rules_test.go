package instability_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestOneOfEverything turns the module's "exactly one" claims into checks.
// Each rule scans the module's source and reports every place that breaks
// it as file:line. A rule's allowlist names the places that may break it,
// each with its reason; an entry that no longer breaks its rule fails the
// test, so an allowlist can only shrink.
//
// The planted subtests add one violation per rule to an in-memory copy of
// the module and check that the rule names the planted line and nothing
// else; the stale subtests give each rule an entry that matches nothing.
func TestOneOfEverything(t *testing.T) {
	m := loadModule(t, nil)
	for _, r := range oneRules {
		t.Run(r.name, func(t *testing.T) {
			for _, msg := range r.check(m, r.allow) {
				t.Error(msg)
			}
		})
	}

	t.Run("planted", func(t *testing.T) {
		overlay := map[string]string{}
		for _, r := range oneRules {
			for rel, src := range r.plant(m.read) {
				overlay[rel] = src
			}
		}
		pm := loadModule(t, overlay)
		for _, r := range oneRules {
			t.Run(r.name, func(t *testing.T) {
				var want []string
				for rel, src := range r.plant(m.read) {
					for i, line := range strings.Split(src, "\n") {
						if strings.HasSuffix(line, "violation") && !strings.Contains(m.read(rel), line) {
							want = append(want, fmt.Sprintf("%s:%d:", rel, i+1))
						}
					}
				}
				got := r.check(pm, r.allow)
				if len(want) == 0 || len(got) != len(want) {
					t.Fatalf("planted %v, rule reported %d failures:\n%s", want, len(got), strings.Join(got, "\n"))
				}
				for _, w := range want {
					if !slices.ContainsFunc(got, func(g string) bool { return strings.HasPrefix(g, w) }) {
						t.Errorf("planted violation at %s not named; rule reported:\n%s", w, strings.Join(got, "\n"))
					}
				}
			})
		}
	})

	t.Run("stale", func(t *testing.T) {
		for _, r := range oneRules {
			allow := map[string]string{"stale.probe": "matches nothing"}
			for k, v := range r.allow {
				allow[k] = v
			}
			if got := r.check(m, allow); !slices.ContainsFunc(got, func(g string) bool { return strings.Contains(g, `"stale.probe"`) }) {
				t.Errorf("%s: a stale allowlist entry went unreported", r.name)
			}
		}
	})
}

// oneRule is one "exactly one" claim. find reports every place that breaks
// it, keyed by what its allowlist names (a file, or an identifier); plant
// returns files that add violations, each on a line ending in "violation".
type oneRule struct {
	name  string
	find  func(m *srcModule) []breach
	allow map[string]string // key -> reason
	plant func(read func(rel string) string) map[string]string
}

type breach struct {
	key  string
	pos  string // file:line
	what string
}

// check reports each breach that no allowlist entry covers, each entry that
// covers no breach, and each entry without a reason.
func (r oneRule) check(m *srcModule, allow map[string]string) []string {
	var out []string
	hit := map[string]bool{}
	for _, b := range r.find(m) {
		if _, ok := allow[b.key]; ok {
			hit[b.key] = true
			continue
		}
		out = append(out, fmt.Sprintf("%s: %s", b.pos, b.what))
	}
	for k, reason := range allow {
		if !hit[k] {
			out = append(out, fmt.Sprintf("allowlist entry %q no longer breaks the rule; delete it", k))
		}
		if strings.TrimSpace(reason) == "" {
			out = append(out, fmt.Sprintf("allowlist entry %q gives no reason", k))
		}
	}
	slices.Sort(out)
	return out
}

var oneRules = []oneRule{
	{
		name: "crc32.ChecksumIEEE",
		find: namedOutside("hash/crc32", "ChecksumIEEE"),
		allow: map[string]string{
			"internal/collector/codec.go": "collector.Checksum is the one CRC every IRTL frame, WAL frame and segment uses",
		},
		plant: plantFile("internal/planted/crc.go", `package planted

import "hash/crc32"

var _ = crc32.ChecksumIEEE // violation
`),
	},
	{
		name: "compress/flate",
		find: importedOutside("compress/flate"),
		allow: map[string]string{
			"internal/store/legacy.go": "v2 segments, the one legacy format it reads, hold flate-compressed blocks",
		},
		plant: plantFile("internal/planted/flate.go", `package planted

import _ "compress/flate" // violation
`),
	},
	{
		name: "container/list",
		find: importedOutside("container/list"),
		allow: map[string]string{
			"internal/lru/lru.go": "internal/lru is the one LRU",
		},
		plant: plantFile("internal/planted/list.go", `package planted

import _ "container/list" // violation
`),
	},
	{
		name: "bgp.MarshalAttrs",
		find: func(m *srcModule) []breach {
			return append(namedOutside("instability/internal/bgp", "MarshalAttrs")(m), namedOutside("instability/internal/bgp", "AppendAttrs")(m)...)
		},
		allow: map[string]string{
			"internal/collector/codec.go":     "the record codec writes an announcement's attributes",
			"internal/collector/collector.go": "the log writer encodes an announcement's attributes into a reused buffer",
			"internal/intern/intern.go":       "the attribute table is keyed on the wire bytes a lookup encodes",
			"internal/serve/query.go":         "NDJSON streams render attributes from wire bytes; ROADMAP item 7 removes this one",
		},
		plant: plantFile("internal/planted/marshal.go", `package planted

import "instability/internal/bgp"

var _ = bgp.MarshalAttrs // violation
var _ = bgp.AppendAttrs // violation
`),
	},
	{
		name: "intern.New",
		find: namedOutside("instability/internal/intern", "New"),
		allow: map[string]string{
			"internal/core/classifier.go": "the pipeline's one classifier interns its attributes in one table per pipeline; ROADMAP item 9",
			"internal/session/peer.go":    "each BGP peer interns what it decodes; ROADMAP item 9",
			"internal/store/codec.go":     "one table per store, under the store's table mutex; ROADMAP item 9 makes it process-wide",
		},
		plant: plantFile("internal/planted/intern.go", `package planted

import "instability/internal/intern"

var _ = intern.New() // violation
`),
	},
	{
		name: "one pipeline",
		find: func(m *srcModule) []breach {
			var out []breach
			for _, name := range []string{"NewClassifier", "NewAccumulator"} {
				for _, b := range namedOutside("instability/internal/core", name)(m) {
					if path.Dir(b.key) != "." {
						out = append(out, b)
					}
				}
			}
			return out
		},
		allow: map[string]string{
			"internal/cli/experiments.go":  "the bare-classifier claims (statefulFix, liveSimClaim) keep Classifier.Classify and Accumulator.Add named by program code",
			"internal/benchkit/analyze.go": "the staged analyze pass times classify and accumulate apart; ROADMAP item 2",
			"internal/benchkit/live.go":    "re-stages bgpcollect's sink; ROADMAP item 2",
		},
		plant: plantFile("internal/planted/pipeline.go", `package planted

import "instability/internal/core"

var _ = core.NewAccumulator() // violation
`),
	},
	{
		name:  "one prefix packing",
		find:  shiftedPrefixAddr,
		allow: map[string]string{},
		plant: plantFile("internal/planted/prefixkey.go", `package planted

import "instability/internal/netaddr"

var _ = uint64(netaddr.Prefix{}.Addr()) << 8 // violation
`),
	},
	{
		name:  "log/slog",
		find:  importedOutside("log/slog"),
		allow: map[string]string{},
		plant: plantFile("internal/planted/slog.go", `package planted

import _ "log/slog" // violation
`),
	},
	{
		name:  "dead exports",
		find:  deadExports,
		allow: deadExportAllow,
		plant: plantFile("internal/planted/dead.go", `package planted

func Planted() {} // violation
`),
	},
	{
		name:  "fuzz steps",
		find:  fuzzSteps,
		allow: map[string]string{},
		plant: func(read func(string) string) map[string]string {
			ci := read(ciPath)
			at := strings.Index(ci, "\n  fuzz-smoke:\n")
			at += strings.Index(ci[at:], "    steps:\n") + len("    steps:\n")
			step := "      - run: go test ./internal/planted -run='^$' -fuzz=FuzzGone -fuzztime=30s # violation\n"
			return map[string]string{
				ciPath: ci[:at] + step + ci[at:],
				"internal/planted/fuzz_test.go": `package planted

import "testing"

func FuzzPlanted(f *testing.F) {} // violation
`,
			}
		},
	},
}

// deadExportAllow lists the exported identifiers under internal/ that no
// program code names, and why each stays: the benchmark harness or another
// package's tests need it. A name only its own package's tests need lives in
// that package's _test.go files instead.
var deadExportAllow = map[string]string{
	// Pinned by internal/benchkit, which the benchmark harness owns;
	// ROADMAP item 2 drives the shipped program from benchkit and deletes
	// these.
	"store.AppendRecordWire":    "internal/benchkit (oracle); ROADMAP item 2",
	"store.Store.QueryParallel": "internal/benchkit (query workloads); ROADMAP item 2",
	"store.Writer.Seal":         "internal/benchkit (ingest workload) and the store's seal tests; ROADMAP item 2",
	"serve.Options.SlowQuery":   "internal/benchkit (serve workload); ROADMAP item 2",
	"serve.Client.Query":        "internal/benchkit and the serve tests; ROADMAP item 2",
	"serve.Client.QueryHTTP":    "internal/benchkit and the serve tests; ROADMAP item 2",
	"serve.Client.Aggregate":    "internal/benchkit and the serve tests; ROADMAP item 2",
	"serve.Client.Statz":        "internal/benchkit and the serve tests; ROADMAP item 2",
	"serve.Server.CacheCounts":  "internal/benchkit and TestServeEndToEnd; ROADMAP item 2",
	"rib.RIB.TakeCensus":        "internal/benchkit (staged analyze pass) and the census tests; ROADMAP item 2",
	"obs.Histogram.Quantile":    "internal/benchkit's percentile keys and TestHistogramQuantiles; ROADMAP item 2",

	// Needed by another package's tests.
	"collector.ReadAll":               "TestRecordStreamIsLog (internal/cli) and TestRoundTripCollectorLog (internal/store) read whole logs",
	"collector.WriteAll":              "TestRoundTripCollectorLog (internal/store) writes a whole log",
	"events.Sim.Pending":              "the session tests' establish helper stops when the simulator has nothing left to run",
	"faults.Injector.Stats":           "TestCrashLoop and TestFaultMatrix (internal/store) read what the injector did",
	"faults.NewTransport":             "TestChaosPipeBackoffWithinBounds (internal/session) runs sessions over a flaky transport",
	"obs.Tracer.Disable":              "TestSlowQueryProfileGolden and TestSlowQueryOneDecision (internal/serve) restore the default tracer",
	"obs.TraceSpan.TraceID":           "TestTracePropagationHTTP and TestTracePropagationBinary (internal/serve) join client and server traces",
	"obs.TraceSpan.SpanID":            "TestTracePropagationHTTP (internal/serve) checks the propagated parent span",
	"report.HasPeriod":                "BenchmarkFig5 checks the 24-hour and weekly peaks with it",
	"rib.Aggregate":                   "BenchmarkAblationAggregation measures the supernetting ablation (DESIGN.md, Ablations)",
	"rib.RIB.Candidates":              "TestMultihomedFailover (internal/router) counts the paths a multihomed prefix holds",
	"topology.Topology.TotalPrefixes": "TestBuildEstablishesAndPropagates and TestDeterministicBuild (internal/netsim) size their checks by it",
	"workload.ScenarioConfig":         "TestGoldenScenarioDetection builds each adversarial scenario",
	"workload.AdversaryConfig":        "TestAnalyzeGolden and the detector golden tests build the adversarial campaigns",
}

// plantFile plants one new file.
func plantFile(rel, src string) func(func(string) string) map[string]string {
	return func(func(string) string) map[string]string { return map[string]string{rel: src} }
}

// namedOutside reports every file of program code that names pkg.name.
func namedOutside(pkg, name string) func(m *srcModule) []breach {
	return func(m *srcModule) []breach {
		var out []breach
		for _, p := range m.pkgs {
			for id, obj := range p.info.Uses {
				if obj.Pkg() != nil && obj.Pkg().Path() == pkg && obj.Name() == name && obj.Parent() == obj.Pkg().Scope() {
					rel, pos := m.where(id.Pos())
					out = append(out, breach{rel, pos, fmt.Sprintf("names %s.%s", path.Base(pkg), name)})
				}
			}
		}
		return out
	}
}

// shiftedPrefixAddr reports every shift, in program code outside
// internal/netaddr, of a conversion of netaddr.Prefix.Addr(): a prefix
// packed by hand where Prefix.Key is the one packing.
func shiftedPrefixAddr(m *srcModule) []breach {
	var out []breach
	for _, p := range m.pkgs {
		if p.dir == "internal/netaddr" {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || be.Op != token.SHL && be.Op != token.SHR {
					return true
				}
				conv, ok := ast.Unparen(be.X).(*ast.CallExpr)
				if !ok || len(conv.Args) != 1 || !p.info.Types[conv.Fun].IsType() {
					return true
				}
				call, ok := ast.Unparen(conv.Args[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if fn, ok := p.info.Uses[sel.Sel].(*types.Func); ok && fn.FullName() == "(instability/internal/netaddr.Prefix).Addr" {
					rel, pos := m.where(be.Pos())
					out = append(out, breach{rel, pos, "shifts a conversion of netaddr.Prefix.Addr(); pack with Prefix.Key"})
				}
				return true
			})
		}
	}
	return out
}

// importedOutside reports every file of program code that imports pkg.
func importedOutside(pkg string) func(m *srcModule) []breach {
	return func(m *srcModule) []breach {
		var out []breach
		for _, p := range m.pkgs {
			for _, f := range p.files {
				for _, imp := range f.Imports {
					if strings.Trim(imp.Path.Value, `"`) == pkg {
						rel, pos := m.where(imp.Pos())
						out = append(out, breach{rel, pos, "imports " + pkg})
					}
				}
			}
		}
		return out
	}
}

// deadExports reports every exported identifier under internal/ that no
// program code names: package-level functions, types, variables and
// constants, the exported methods of named types, and the exported fields
// of named struct types. A use inside the identifier's own function
// declaration does not count. A method that implements an interface, and a
// field with a json tag, are exempt. internal/benchkit is the benchmark
// harness: its names are not checked, and its uses of program names do not
// count (the allowlist says which names it pins).
func deadExports(m *srcModule) []breach {
	used := map[types.Object]bool{}
	benchUsed := map[types.Object]bool{}
	for _, p := range m.pkgs {
		uses := used
		if p.dir == benchkitDir {
			uses = benchUsed
		}
		mark := func(n ast.Node, self types.Object) {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := p.info.Uses[id]; obj != nil && obj != self {
						uses[origin(obj)] = true
					}
				}
				return true
			})
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					mark(d, nil)
					continue
				}
				// A method's receiver does not name its type, and a
				// function's own body does not name the function.
				self := p.info.Defs[fd.Name]
				mark(fd.Type, self)
				if fd.Body != nil {
					mark(fd.Body, self)
				}
			}
		}
	}

	ifaces := m.interfaces()
	var out []breach
	report := func(p *srcPkg, obj types.Object, key string) {
		if used[obj] {
			return
		}
		key = path.Base(p.path) + "." + key
		what := key + " is named by no program code"
		if benchUsed[obj] {
			what += " but internal/benchkit"
		}
		_, pos := m.where(obj.Pos())
		out = append(out, breach{key, pos, what})
	}
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") || p.dir == benchkitDir {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				report(p, obj, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if fn.Exported() && !used[fn] && !implements(named, fn, ifaces) {
					report(p, fn, name+"."+fn.Name())
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					fld := st.Field(i)
					if fld.Exported() && !fld.Embedded() && reflect.StructTag(st.Tag(i)).Get("json") == "" {
						report(p, fld, name+"."+fld.Name())
					}
				}
			}
		}
	}
	return out
}

// implements reports whether fn, a method of named, is one of the methods
// by which named or its pointer satisfies an interface.
func implements(named *types.Named, fn *types.Func, ifaces map[string][]*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// origin maps a method or field of an instantiated generic type back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// fuzzSteps reports every Fuzz target in the module that the fuzz-smoke job
// of the CI workflow does not run exactly once, and every step there that
// runs no target.
func fuzzSteps(m *srcModule) []breach {
	type target struct{ dir, name string }
	declared := map[target]string{}
	var out []breach
	for _, p := range m.pkgs {
		for _, f := range p.tests {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
					_, pos := m.where(fd.Name.Pos())
					declared[target{p.dir, fd.Name.Name}] = pos
				}
			}
		}
	}
	steps := map[target]int{}
	inJob := false
	for i, line := range strings.Split(m.read(ciPath), "\n") {
		if strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   ") {
			inJob = strings.TrimSpace(line) == "fuzz-smoke:"
		}
		s := fuzzStep.FindStringSubmatch(line)
		if !inJob || s == nil {
			continue
		}
		tg := target{strings.TrimPrefix(s[1], "./"), strings.Trim(strings.Trim(s[2], `'"`), "^$")}
		pos := fmt.Sprintf("%s:%d", ciPath, i+1)
		steps[tg]++
		switch {
		case declared[tg] == "":
			out = append(out, breach{tg.name, pos, fmt.Sprintf("fuzz-smoke step runs %s in ./%s, which declares no such target", tg.name, tg.dir)})
		case steps[tg] > 1:
			out = append(out, breach{tg.name, pos, fmt.Sprintf("fuzz-smoke runs %s more than once", tg.name)})
		}
	}
	for tg, pos := range declared {
		if steps[tg] == 0 {
			out = append(out, breach{tg.name, pos, fmt.Sprintf("%s has no -fuzz= step in the fuzz-smoke job of %s", tg.name, ciPath)})
		}
	}
	return out
}

var fuzzStep = regexp.MustCompile(`^\s*(?:- )?run:\s*go test (\S+) .*-fuzz=(\S+)`)

const (
	ciPath      = ".github/workflows/ci.yml"
	benchkitDir = "internal/benchkit"
)

// srcModule is the module's program code, parsed and type-checked, plus
// its test files, parsed only.
type srcModule struct {
	root    string
	fset    *token.FileSet
	pkgs    map[string]*srcPkg // by import path
	overlay map[string]string  // slash path relative to root -> contents
}

type srcPkg struct {
	path, dir string // import path; slash path relative to the module root
	files     []*ast.File
	tests     []*ast.File
	types     *types.Package
	info      *types.Info
}

// read returns the file at rel, from the overlay if it holds one.
func (m *srcModule) read(rel string) string {
	if src, ok := m.overlay[rel]; ok {
		return src
	}
	b, err := os.ReadFile(filepath.Join(m.root, filepath.FromSlash(rel)))
	if err != nil {
		return ""
	}
	return string(b)
}

// where returns the slash path relative to the module root of the file
// holding pos, and pos as path:line.
func (m *srcModule) where(pos token.Pos) (rel, at string) {
	p := m.fset.Position(pos)
	rel, err := filepath.Rel(m.root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	rel = filepath.ToSlash(rel)
	return rel, fmt.Sprintf("%s:%d", rel, p.Line)
}

// interfaces indexes, by method name, every interface type the module
// declares or writes, every named interface of the packages it imports, and
// error and the Unwrap interface the errors package asserts.
func (m *srcModule) interfaces() map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			out[name] = append(out[name], it)
		}
	}
	errType := types.Universe.Lookup("error").Type()
	add(errType.Underlying().(*types.Interface))
	unwrap := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false)
	add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", unwrap)}, nil).Complete())
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					add(it)
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range m.pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				add(it)
			}
		}
	}
	return out
}

// loadModule parses and type-checks every package of the module rooted at
// the repository, with the files in overlay added or replaced. Directories
// holding their own go.mod, testdata, and hidden directories are skipped.
func loadModule(t *testing.T, overlay map[string]string) *srcModule {
	t.Helper()
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	m := &srcModule{root: root, fset: token.NewFileSet(), pkgs: map[string]*srcPkg{}, overlay: overlay}
	var rels []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if _, over := overlay[rel]; strings.HasSuffix(rel, ".go") && !over {
			if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
				return err
			}
			rels = append(rels, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rel := range overlay {
		if strings.HasSuffix(rel, ".go") {
			rels = append(rels, rel)
		}
	}
	slices.Sort(rels)
	for _, rel := range rels {
		dir := path.Dir(rel)
		p := m.pkgs[path.Join("instability", dir)]
		if p == nil {
			p = &srcPkg{dir: dir, path: path.Join("instability", dir)}
			m.pkgs[p.path] = p
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(root, filepath.FromSlash(rel)), m.read(rel), parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(rel, "_test.go") {
			p.tests = append(p.tests, f)
		} else {
			p.files = append(p.files, f)
		}
	}
	for path, p := range m.pkgs {
		if len(p.files) == 0 {
			delete(m.pkgs, path)
		}
	}

	std := stdImporter()
	var check func(path string) (*types.Package, error)
	checking := map[string]bool{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "instability" || strings.HasPrefix(path, "instability/") {
			return check(path)
		}
		return std(path)
	})
	check = func(path string) (*types.Package, error) {
		p := m.pkgs[path]
		if p == nil {
			return nil, fmt.Errorf("no package %s in the module", path)
		}
		if p.types != nil {
			return p.types, nil
		}
		if checking[path] {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		checking[path] = true
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(path, m.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = tp
		return tp, nil
	}
	for path := range m.pkgs {
		if _, err := check(path); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdImporter type-checks standard-library packages from source, once per
// test binary. cgo is off so that net and os/user check as their pure-Go
// variants instead of running the cgo tool; the module uses no cgo.
var stdImporter = sync.OnceValue(func() func(string) (*types.Package, error) {
	build.Default.CgoEnabled = false
	imp := importer.ForCompiler(token.NewFileSet(), "source", nil)
	var mu sync.Mutex
	return func(path string) (*types.Package, error) {
		mu.Lock()
		defer mu.Unlock()
		return imp.Import(path)
	}
})
