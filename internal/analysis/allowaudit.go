package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// AllowAudit keeps the suppression ledger honest: every //lint:allow
// annotation must (a) be well-formed — a known analyzer name plus a
// non-empty reason — and (b) still suppress a live finding. A stale
// allow is an error, not noise: it either marks code whose hazard was
// fixed (delete the annotation before it silences the next, real
// finding on that line) or an annotation that drifted away from the
// code it used to excuse.
//
// Staleness is decided by re-running every sibling analyzer unfiltered
// and checking that a raw finding by the named analyzer lands on the
// annotation's line or the line directly below it — exactly the span
// Lint's filter covers. Each sibling is re-run only where appliesTo lets
// Lint run it, so a determinism allow outside DeterministicPackages is
// correctly reported as suppressing nothing.
var AllowAudit = &Analyzer{
	Name: "allowaudit",
	Doc: "flag suppressions that no longer suppress anything: every " +
		"//lint:allow needs a known analyzer, a non-empty reason, and a " +
		"live finding on its line or the line below",
}

// Run is attached in init: runAllowAudit re-runs All(), which includes
// AllowAudit itself, and the compiler rejects the static
// initialization cycle a direct field initializer would create.
func init() { AllowAudit.Run = runAllowAudit }

func runAllowAudit(pass *Pass) error {
	known := make(map[string]bool)
	var names []string
	for _, a := range All() {
		known[a.Name] = true
		names = append(names, a.Name)
	}

	// Parse every annotation, malformed ones included.
	type sited struct {
		analyzer string
		pos      token.Position
		tok      token.Pos
	}
	var wellFormed []sited
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if !allowAnyRe.MatchString(cm.Text) {
					continue
				}
				m := allowRe.FindStringSubmatch(cm.Text)
				if m == nil || !reasonOK(m[2]) {
					pass.Reportf(cm.Pos(), "reason-less //lint:allow: the format is `//lint:allow <analyzer> <reason>` — a suppression without a stated reason is indistinguishable from a silenced finding")
					continue
				}
				if !known[m[1]] {
					pass.Reportf(cm.Pos(), "unknown analyzer %q in //lint:allow: it suppresses nothing (known: %s)", m[1], strings.Join(names, ", "))
					continue
				}
				wellFormed = append(wellFormed, sited{analyzer: m[1], pos: pass.Fset.Position(cm.Pos()), tok: cm.Pos()})
			}
		}
	}
	if len(wellFormed) == 0 {
		return nil
	}

	// Re-run the sibling analyzers unfiltered and index their raw
	// findings by (analyzer, file, line).
	hits := make(map[string]map[string]map[int]bool)
	for _, a := range All() {
		if a == AllowAudit || !appliesTo(a, pass.Pkg.Path()) {
			continue
		}
		name := a.Name
		sub := &Pass{
			Analyzer:  a,
			Fset:      pass.Fset,
			Files:     pass.Files,
			Pkg:       pass.Pkg,
			TypesInfo: pass.TypesInfo,
			Report: func(d Diagnostic) {
				pos := pass.Fset.Position(d.Pos)
				byFile := hits[name]
				if byFile == nil {
					byFile = make(map[string]map[int]bool)
					hits[name] = byFile
				}
				lines := byFile[pos.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					byFile[pos.Filename] = lines
				}
				lines[pos.Line] = true
			},
		}
		if err := a.Run(sub); err != nil {
			return fmt.Errorf("allowaudit: re-running %s: %w", a.Name, err)
		}
	}

	for _, s := range wellFormed {
		lines := hits[s.analyzer][s.pos.Filename]
		if lines[s.pos.Line] || lines[s.pos.Line+1] {
			continue
		}
		pass.Reportf(s.tok, "stale //lint:allow %s: no %s finding on this line or the line below — the hazard was fixed (delete the annotation) or the annotation drifted from the code it excused", s.analyzer, s.analyzer)
	}
	return nil
}
