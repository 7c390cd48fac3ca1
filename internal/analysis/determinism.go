package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism forbids wall-clock and ambient-entropy reads. Lint
// scopes it to DeterministicPackages; run directly (tests) it applies
// to whatever package it is handed.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now/Since/Until, the global math/rand generator, and " +
		"crypto/rand in deterministic packages: evaluation must be a pure " +
		"function of the report stream, so replay and the sharded/single " +
		"differential contract stay exact",
	Run: runDeterminism,
}

// seededRandConstructors are the math/rand entry points that build an
// explicitly seeded generator — the sanctioned way to use randomness in
// deterministic code (e.g. a future randomized index), since the caller
// owns the seed.
var seededRandConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			// Tests may use clocks and ad-hoc randomness freely; the
			// invariant protects shipped evaluation paths.
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil {
				return true
			}
			switch pkgPathOf(obj) {
			case "time":
				if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
					switch obj.Name() {
					case "Now", "Since", "Until":
						pass.Reportf(sel.Pos(), "call to time.%s in deterministic package %s: evaluation must not read the wall clock (timestamps enter through reports)", obj.Name(), pass.Pkg.Path())
					}
				}
			case "math/rand", "math/rand/v2":
				// Methods on an explicitly constructed *rand.Rand are
				// fine — the caller seeded it. Package-level functions
				// draw from the shared, globally seeded generator.
				if fn, ok := obj.(*types.Func); ok {
					if fn.Type().(*types.Signature).Recv() != nil {
						return true
					}
					if seededRandConstructors[obj.Name()] {
						return true
					}
					pass.Reportf(sel.Pos(), "call to the global %s.%s generator in deterministic package %s: use an explicitly seeded rand.New(rand.NewSource(seed))", shortPkg(pkgPathOf(obj)), obj.Name(), pass.Pkg.Path())
				}
			case "crypto/rand":
				pass.Reportf(sel.Pos(), "use of crypto/rand.%s in deterministic package %s: ambient entropy breaks replay", obj.Name(), pass.Pkg.Path())
			case "cqp/internal/obs":
				// The observability layer's wall clock would reopen the
				// loophole the injected obs.Clock exists to close: metrics
				// may time spans only through a clock handed in by the
				// server/cmd layer (or a test fake).
				if obj.Name() == "WallClock" {
					pass.Reportf(sel.Pos(), "call to obs.WallClock in deterministic package %s: receive an obs.Clock by injection instead of reading the wall clock", pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil
}

func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
