// Package analysis is the engine's static-analysis suite: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus the project-specific
// analyzers. Each one stays because a recorded mutation of the code it
// guards fails make lint and no test (see DESIGN.md, "Mechanically
// enforced invariants"):
//
//   - determinism: no wall-clock or ambient-entropy reads inside the
//     deterministic packages (core, shard, grid, geo, repository).
//   - maporder: no map-iteration-ordered data may reach an emitted
//     update slice, the wire, or a checksum without being sorted.
//   - locksend: no mutex may be held across a blocking channel
//     operation or a blocking I/O call (the session/outbox deadlock
//     shape).
//   - erradrift: no discarded errors on the repository/wire write paths.
//   - golifecycle: no fire-and-forget goroutines — every `go` statement
//     needs a provable join/stop path visible from the launch site.
//   - atomicmix: no obs instrument resolved inside a loop.
//   - allowaudit: every //lint:allow suppression must be well-formed
//     and still suppress a live finding.
//
// The framework mirrors x/tools deliberately: if the module ever grows a
// dependency on golang.org/x/tools, each Analyzer translates 1:1. It is
// built on the standard library only (go/ast, go/types) so the suite
// runs in hermetic build environments.
//
// Findings are suppressed with an annotation on the offending line or
// the line directly above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory: Lint ignores a bare allow, and allowaudit
// reports it. cmd/cqp-lint runs Lint over every package as a go vet tool.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check, mirroring the x/tools type of the
// same name.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //lint:allow
	// annotations. Lower-case, no spaces.
	Name string

	// Doc is the one-paragraph description of what the analyzer
	// enforces.
	Doc string

	// Run applies the analyzer to one package, reporting findings
	// through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzed package through an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. Lint attaches the analyzer name,
	// resolves the position, and applies the //lint:allow filter.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, MapOrder, LockSend, ErrAdrift, GoLifecycle,
		AtomicMix, AllowAudit,
	}
}

// TypeCheck typechecks one package's files under the import path,
// recording the types.Info maps the analyzers read.
func TypeCheck(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	return pkg, info, err
}

// --- shared helpers --------------------------------------------------------

// funcOf resolves the called function or method of a call expression,
// or nil for builtins, conversions, and indirect calls through function
// values.
func funcOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// rootIdent strips selectors, indexing, stars, and parens down to the
// base identifier of an expression: rootIdent(`(*e.qrys[q]).answer`) is
// `e`. It returns nil when the base is not a plain identifier (e.g. a
// call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// rootObject resolves the types.Object at the root of an expression, or
// nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// pkgPathOf returns the import path of the package defining obj, or ""
// for builtins and universe-scope objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isTestFile reports whether pos lies in a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	if f == nil {
		return false
	}
	name := f.Name()
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}
