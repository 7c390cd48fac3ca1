package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// The per-package lint policy, which the analyzers themselves
// deliberately do not encode so that tests can run them directly on
// fixtures. It has two halves, read by Lint and by allowaudit:
//
//   - scope: the determinism analyzer applies only to
//     DeterministicPackages; the others apply everywhere;
//
//   - suppression: a finding is dropped when the offending line, or the
//     line directly above it, carries
//
//     //lint:allow <analyzer> <reason>
//
//     with a non-empty reason. A bare "//lint:allow analyzer" suppresses
//     nothing: nothing could tell a justified exception from a silenced
//     one.

// DeterministicPackages are the packages whose behavior must be a pure
// function of their inputs: the evaluation engines, the spatial index,
// the geometry kernel, and the durable store. Replaying the same report
// stream through them must produce bit-identical update streams,
// checksums, and on-disk state — the property the paper's incremental
// update contract, the differential shard test, and crash recovery all
// rest on. Wall-clock time enters the system exclusively at the edges
// (internal/server assigns timestamps; clients report them).
var DeterministicPackages = map[string]bool{
	"cqp/internal/core":       true,
	"cqp/internal/shard":      true,
	"cqp/internal/grid":       true,
	"cqp/internal/geo":        true,
	"cqp/internal/repository": true,
}

// appliesTo reports whether analyzer a applies to the package at pkgPath.
func appliesTo(a *Analyzer, pkgPath string) bool {
	return a != Determinism || DeterministicPackages[pkgPath]
}

// Finding is one diagnostic surviving //lint:allow filtering.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Lint applies every in-scope analyzer to one typechecked package and
// returns the findings no //lint:allow annotation suppresses. The error
// reports an analyzer failure, not findings.
func Lint(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Finding, error) {
	allows := collectAllows(fset, files)
	var findings []Finding
	for _, a := range All() {
		if !appliesTo(a, pkg.Path()) {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		pass.Report = func(d Diagnostic) {
			pos := fset.Position(d.Pos)
			if !allows.allowed(a.Name, pos) {
				findings = append(findings, Finding{Pos: pos, Analyzer: a.Name, Message: d.Message})
			}
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path(), err)
		}
	}
	return findings, nil
}

// allowRe matches a suppression comment's shape: analyzer name plus a
// trailing reason. A reason starting with "//" is not a reason — it is
// a bare allow followed by another comment — so callers must also
// check reasonOK.
var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+([A-Za-z0-9_-]+)\s+(\S.*)$`)

// reasonOK reports whether a captured reason is a real one.
func reasonOK(reason string) bool {
	return reason != "" && !strings.HasPrefix(reason, "//")
}

// allowAnyRe matches anything that is trying to be a suppression,
// well-formed or not; allowaudit uses it to catch reason-less allows.
var allowAnyRe = regexp.MustCompile(`^//\s*lint:allow\b`)

// allowSet maps file -> line -> set of analyzer names allowed there.
type allowSet map[string]map[int]map[string]bool

// allowed reports whether a finding by analyzer at pos is suppressed by
// an annotation on its line or the line directly above.
func (s allowSet) allowed(analyzer string, pos token.Position) bool {
	lines := s[pos.Filename]
	return lines[pos.Line][analyzer] || lines[pos.Line-1][analyzer]
}

// collectAllows indexes every well-formed //lint:allow annotation in
// files by position. Malformed annotations (no reason) are excluded;
// allowaudit reports those separately.
func collectAllows(fset *token.FileSet, files []*ast.File) allowSet {
	out := make(allowSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				m := allowRe.FindStringSubmatch(cm.Text)
				if m == nil || !reasonOK(m[2]) {
					continue
				}
				pos := fset.Position(cm.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					out[pos.Filename] = lines
				}
				if lines[pos.Line] == nil {
					lines[pos.Line] = make(map[string]bool)
				}
				lines[pos.Line][m[1]] = true
			}
		}
	}
	return out
}
