// Package analysistest runs one analyzer over a fixture package and
// compares its diagnostics against `// want` expectations embedded in
// the fixture source — the same contract as
// golang.org/x/tools/go/analysis/analysistest, reimplemented on the
// standard library so it works in a hermetic build environment.
//
// A fixture lives in testdata/src/<name>/ under the calling test's
// package directory. Each line that should produce a diagnostic carries
// a trailing comment with one or more quoted regular expressions:
//
//	time.Now() // want `time\.Now`
//	x := f()   // want "first finding" "second finding"
//
// The test fails if a diagnostic has no matching expectation on its
// line, or an expectation goes unmatched. Fixtures are typechecked for
// real by the standard library's source importer, which resolves module
// packages such as cqp/internal/wire too, so a fixture that does not
// compile fails the test with the type error.
package analysistest

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cqp/internal/analysis"
)

func init() {
	// The source importer consults build.Default; with cgo enabled it
	// would try to resolve the cgo halves of net/os/user and fail in a
	// toolchain-only container. The pure-Go variants typecheck fine.
	build.Default.CgoEnabled = false
}

var (
	wantRe   = regexp.MustCompile(`//\s*want\s+(.+)$`)
	quotedRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")
)

// expectation is one `// want` pattern awaiting a diagnostic.
type expectation struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads testdata/src/<fixture> (relative to the test's working
// directory) under the import path <fixture>, applies the analyzer, and
// enforces the `// want` expectations.
func Run(t *testing.T, a *analysis.Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	fset := token.NewFileSet()
	files := parseDir(t, fset, dir)
	pkg, info, err := analysis.TypeCheck(fixture, fset, files, importer.ForCompiler(fset, "source", nil))
	if err != nil {
		t.Fatalf("typechecking fixture %s: %v", fixture, err)
	}

	wants := collectWants(t, fset, files)
	pass := &analysis.Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
	pass.Report = func(d analysis.Diagnostic) {
		pos := fset.Position(d.Pos)
		file := filepath.Base(pos.Filename)
		for _, e := range wants[file][pos.Line] {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				return
			}
		}
		t.Errorf("%s:%d: unexpected diagnostic: %s", file, pos.Line, d.Message)
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}

	for file, lines := range wants {
		for line, exps := range lines {
			for _, e := range exps {
				if !e.matched {
					t.Errorf("%s:%d: expected diagnostic matching %s, got none", file, line, e.raw)
				}
			}
		}
	}
}

// parseDir parses the non-test .go files of dir with comments, in name
// order.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// collectWants gathers the files' `// want` comments, keyed by base
// filename and line.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[string]map[int][]*expectation {
	t.Helper()
	out := make(map[string]map[int][]*expectation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				m := wantRe.FindStringSubmatch(cm.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(cm.Pos())
				name := filepath.Base(pos.Filename)
				for _, q := range quotedRe.FindAllString(m[1], -1) {
					pat, err := unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", name, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %s: %v", name, pos.Line, q, err)
					}
					if out[name] == nil {
						out[name] = make(map[int][]*expectation)
					}
					out[name][pos.Line] = append(out[name][pos.Line], &expectation{re: re, raw: q})
				}
			}
		}
	}
	return out
}

func unquote(q string) (string, error) {
	if strings.HasPrefix(q, "`") {
		return strings.Trim(q, "`"), nil
	}
	return strconv.Unquote(q)
}
