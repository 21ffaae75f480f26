package docs

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// root is the repository root.
const root = "../.."

// checked are the docs whose every cited name must resolve.
// bench/README.md belongs to the benchmark and is not among them.
var checked = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

func TestDocsResolve(t *testing.T) {
	ix := newIndex(t)
	for _, name := range checked {
		b, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ix.problems(string(b)) {
			t.Errorf("%s: %s", name, p)
		}
	}
}

// The resolver is only as good as what it refuses: one bogus name of
// each kind must be reported, and their live counterparts must not.
func TestDocsResolveRefusesBogusNames(t *testing.T) {
	ix := newIndex(t)
	live := "`sim.Config`, `sim.Config.NoFastForward`, `Controller.Tick`, " +
		"`MSHR.Waiters`, `readyRef.retryVer`, `MemSystem.StateVersion()`, `sim.skip_fraction`, " +
		"`internal/sim/sim.go`, `cmd/*/testdata/usage.txt`, `golden.json`, `BENCHMARK.json`, " +
		"`-no-fastforward`, `TestDocsResolve`, and\n" +
		"```sh\ngo run -C bench . -quick\ngo test ./internal/check -litmus.replay x -run TestLitmusCorpus\n```\n"
	if ps := ix.problems(live); len(ps) != 0 {
		t.Errorf("live names reported: %q", ps)
	}
	for _, bogus := range []string{
		"`sim.NoSuchDecl`",                       // pkg.Name
		"`sim.Config.NoSuchField`",               // pkg.Type.Field
		"`Controller.NoSuchMethod()`",            // Type.Method
		"`MSHR.FillAt`",                          // Type.Field
		"`Interconnect.Tick`",                    // a type the module dropped
		"`internal/sim/no_such.go`",              // repo path
		"`no_such_golden.txt`",                   // repo file
		"`-timing`",                              // flag of neither CLI
		"under -timing",                          // ... cited in prose
		"```sh\ngo run -C bench . -no-such\n```", // flag of the benchmark
		"`go test -litmus.nosuch`",               // flag of a test binary
		"TestNoSuchTest",                         // test
		"`BenchmarkNoSuchBench`",                 // benchmark
	} {
		if ps := ix.problems(bogus); len(ps) != 1 {
			t.Errorf("%q: want one problem, got %q", bogus, ps)
		}
	}
}

// index is what the tree declares.
type index struct {
	pkgs    map[string]map[string]bool // package name → its top-level names
	members map[string]map[string]bool // "pkg.Type" and "Type" → fields and methods
	tests   map[string]bool            // Test, Benchmark, Fuzz and Example functions
	metrics map[string]bool            // the benchmark's metric names
	top     map[string]bool            // entries of the repository root
	files   []string                   // every file, slash-separated from root
	cli     map[string]bool            // flags in either usage.txt golden
	bench   map[string]bool            // flags of the benchmark command
	testBin map[string]bool            // flags the test binaries declare
}

// goFlags are the go command's and go tool pprof's flags the docs use.
var goFlags = map[string]bool{}

func init() {
	for _, f := range strings.Fields("C run bench benchmem benchtime count cpu cpuprofile memprofile " +
		"fuzz fuzztime race short timeout v o c json list tags top nodecount http") {
		goFlags[f] = true
	}
}

func newIndex(t *testing.T) *index {
	t.Helper()
	ix := &index{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		tests: map[string]bool{}, metrics: map[string]bool{}, top: map[string]bool{},
		cli: map[string]bool{"h": true}, bench: map[string]bool{"h": true}, testBin: map[string]bool{}}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		ix.top[e.Name()] = true
	}
	embeds := map[string][]string{}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			// .git and build outputs such as .bench_build (which may hold
			// other commits' sources) are not the tree.
			if rel != "." && rel != ".github" && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		ix.files = append(ix.files, rel)
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ix.declare(f, rel, embeds)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A type has its embedded types' members too.
	var resolve func(key string, seen map[string]bool) map[string]bool
	resolve = func(key string, seen map[string]bool) map[string]bool {
		ms := ix.members[key]
		if seen[key] {
			return ms
		}
		seen[key] = true
		for _, emb := range embeds[key] {
			for m := range resolve(emb, seen) {
				ms[m] = true
			}
		}
		return ms
	}
	for key := range embeds {
		resolve(key, map[string]bool{})
	}
	for key, ms := range ix.members {
		_, typ, _ := strings.Cut(key, ".")
		if ix.members[typ] == nil {
			ix.members[typ] = map[string]bool{}
		}
		for m := range ms {
			ix.members[typ][m] = true
		}
	}

	for _, golden := range []string{"cmd/tssim/testdata/usage.txt", "cmd/experiments/testdata/usage.txt"} {
		b, err := os.ReadFile(filepath.Join(root, golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "  -"); ok {
				ix.cli[strings.Fields(rest)[0]] = true
			}
		}
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &contract); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(contract.EndToEnd, contract.PerLayer...) {
		ix.metrics[m.Name] = true
	}
	return ix
}

// declare records what one Go file declares.
func (ix *index) declare(f *ast.File, rel string, embeds map[string][]string) {
	inBench := strings.HasPrefix(rel, "bench/")
	isTest := strings.HasSuffix(rel, "_test.go")
	pkg := f.Name.Name
	if !inBench {
		if ix.pkgs[pkg] == nil {
			ix.pkgs[pkg] = map[string]bool{}
		}
	}
	member := func(typ, name string) {
		key := pkg + "." + typ
		if ix.members[key] == nil {
			ix.members[key] = map[string]bool{}
		}
		ix.members[key][name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv == nil && isTest && testName.MatchString(name) {
				ix.tests[name] = true
			}
			if inBench {
				continue
			}
			if d.Recv == nil {
				ix.pkgs[pkg][name] = true
				continue
			}
			if typ := baseType(d.Recv.List[0].Type); typ != "" {
				member(typ, name)
			}
		case *ast.GenDecl:
			if inBench {
				continue
			}
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					typ := s.Name.Name
					ix.pkgs[pkg][typ] = true
					member(typ, "") // the type exists even with no members
					var fields []*ast.Field
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields.List
					case *ast.InterfaceType:
						fields = tt.Methods.List
					}
					for _, fd := range fields {
						for _, n := range fd.Names {
							member(typ, n.Name)
						}
						if len(fd.Names) == 0 {
							emb := baseType(fd.Type)
							member(typ, emb)
							if sel, ok := unstar(fd.Type).(*ast.SelectorExpr); ok {
								emb = sel.X.(*ast.Ident).Name + "." + emb
							} else {
								emb = pkg + "." + emb
							}
							embeds[pkg+"."+typ] = append(embeds[pkg+"."+typ], emb)
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						ix.pkgs[pkg][n.Name] = true
					}
				}
			}
		}
	}
	// Flags: the benchmark's, and those a test binary declares.
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, _ := strconv.Unquote(lit.Value)
		switch {
		case inBench:
			ix.bench[name] = true
		case isTest:
			ix.testBin[name] = true
		}
		return true
	})
}

func unstar(e ast.Expr) ast.Expr {
	if s, ok := e.(*ast.StarExpr); ok {
		return s.X
	}
	return e
}

// baseType names the type in a receiver or an embedded field.
func baseType(e ast.Expr) string {
	switch e := unstar(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return baseType(e.X)
	case *ast.IndexListExpr:
		return baseType(e.X)
	}
	return ""
}

var (
	fence    = regexp.MustCompile("(?ms)^[ \t]*```[^\n]*\n(.*?)^[ \t]*```")
	span     = regexp.MustCompile("`([^`]+)`")
	chain    = regexp.MustCompile(`[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+`)
	flagRe   = regexp.MustCompile(`(?:^|[\s(\[,'"])--?([a-zA-Z][\w.-]*)`)
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_]\w*`)
	fileExt  = regexp.MustCompile(`\.(go|md|txt|json|jsonl|sh|yml|mod)$`)
)

// problems lists every name in doc that does not resolve.
func (ix *index) problems(doc string) []string {
	var out []string
	add := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	for _, name := range testName.FindAllString(doc, -1) {
		if !ix.tests[name] {
			add("%s: no such test, benchmark, fuzz target or example", name)
		}
	}
	// Fenced blocks: flags and paths of the go command lines.
	prose := fence.ReplaceAllStringFunc(doc, func(block string) string {
		body := fence.FindStringSubmatch(block)[1]
		body = strings.ReplaceAll(body, "\\\n", " ")
		for _, line := range strings.Split(body, "\n") {
			line = strings.TrimPrefix(strings.TrimSpace(line), "$ ")
			if strings.HasPrefix(line, "go ") {
				if i := strings.Index(line, " #"); i >= 0 {
					line = line[:i]
				}
				ix.checkFlags(line, add)
				ix.checkPaths(line, false, add)
			}
		}
		return "\n"
	})
	prose = span.ReplaceAllStringFunc(prose, func(m string) string {
		s := strings.ReplaceAll(m[1:len(m)-1], "\n", " ")
		ix.checkFlags(s, add)
		ix.checkPaths(s, true, add)
		ix.checkDecls(s, add)
		return "x"
	})
	ix.checkFlags(prose, add) // a flag cited without backticks
	sort.Strings(out)
	return out
}

// checkFlags resolves every -flag in one command or code span: the
// benchmark's own on a `go run -C bench` line, the go command's and the
// test binaries' on other go command lines, the two CLIs' elsewhere.
func (ix *index) checkFlags(s string, add func(string, ...any)) {
	allowed := func(f string) bool { return ix.cli[f] }
	switch {
	case strings.HasPrefix(s, "go run -C bench"):
		allowed = func(f string) bool { return ix.bench[f] || goFlags[f] }
	case strings.HasPrefix(s, "go run "):
		allowed = func(f string) bool { return ix.cli[f] || goFlags[f] }
	case strings.HasPrefix(s, "go "):
		allowed = func(f string) bool { return goFlags[f] || ix.testBin[f] }
	}
	for _, m := range flagRe.FindAllStringSubmatchIndex(s, -1) {
		f := strings.TrimRight(s[m[2]:m[3]], ".-")
		if !allowed(f) {
			add("-%s: no such flag in %q", f, s[max(0, m[0]-30):min(len(s), m[1]+30)])
		}
	}
}

// checkPaths resolves repository paths: a token whose first element is
// an entry of the root, or that names a file by a path; in a code span
// that is nothing but a file name, the name must be a file's somewhere.
func (ix *index) checkPaths(s string, isSpan bool, add func(string, ...any)) {
	for _, tok := range strings.FieldsFunc(s, func(r rune) bool {
		return strings.ContainsRune(" \t()[]{},;:'\"=`", r)
	}) {
		tok = strings.TrimPrefix(tok, "./")
		tok = strings.TrimRight(tok, ".")
		if tok == "" || strings.HasPrefix(tok, "/") || strings.HasPrefix(tok, "-") || strings.Contains(tok, "://") {
			continue
		}
		first, _, hasSlash := strings.Cut(tok, "/")
		switch {
		case hasSlash && (ix.top[first] || fileExt.MatchString(tok)):
			if !ix.exists(strings.TrimSuffix(tok, "/"), false) {
				add("%s: no such path", tok)
			}
		case !hasSlash && isSpan && tok == strings.TrimSpace(s) && fileExt.MatchString(tok):
			if !ix.exists(tok, true) {
				add("%s: no such file", tok)
			}
		}
	}
}

// exists reports whether pattern matches a file or directory, from the
// root or, for a base name, anywhere.
func (ix *index) exists(pattern string, base bool) bool {
	for _, f := range ix.files {
		if base {
			if ok, _ := path.Match(pattern, path.Base(f)); ok {
				return true
			}
			continue
		}
		for p := f; p != "."; p = path.Dir(p) {
			if ok, _ := path.Match(pattern, p); ok {
				return true
			}
		}
	}
	return false
}

// checkDecls resolves pkg.Name, pkg.Type.Member, Type.Member and the
// benchmark's metric names. A chain headed by an exported name must
// name a type of the module; one headed by a lower-case name that is
// neither a package nor a type (a JSON key, a standard-library package,
// a file name) is not the module's to resolve.
func (ix *index) checkDecls(s string, add func(string, ...any)) {
	for _, loc := range chain.FindAllStringIndex(s, -1) {
		if loc[0] > 0 && strings.ContainsAny(s[loc[0]-1:loc[0]], "/.-") {
			continue
		}
		c := s[loc[0]:loc[1]]
		if ix.metrics[c] || fileExt.MatchString(c) {
			continue
		}
		parts := strings.Split(c, ".")
		if top, ok := ix.pkgs[parts[0]]; ok {
			switch {
			case !top[parts[1]]:
				add("%s: package %s declares no %s", c, parts[0], parts[1])
			case len(parts) > 2 && !ix.members[parts[0]+"."+parts[1]][parts[2]]:
				add("%s: %s.%s has no field or method %s", c, parts[0], parts[1], parts[2])
			}
		} else if ms, ok := ix.members[parts[0]]; ok && !ms[parts[1]] {
			add("%s: no type %s has a field or method %s", c, parts[0], parts[1])
		} else if !ok && token.IsExported(parts[0]) {
			add("%s: no package or type %s", c, parts[0])
		}
	}
}
