package analysis

import (
	"go/ast"
	"go/types"
)

// ErrAdrift flags discarded errors on the durable write paths: any call
// into internal/wire or internal/repository whose final error result is
// dropped — either as a bare expression statement or assigned wholesale
// to blanks. A lost repository error silently diverges the durable
// committed answer from the engine's; a lost wire error leaves a session
// undead, streaming into a void. Close errors are exempt (teardown paths
// routinely discard them after a prior failure).
var ErrAdrift = &Analyzer{
	Name: "erradrift",
	Doc: "flag discarded errors from wire/repository write paths: " +
		"a dropped durable-write or frame-write error desynchronizes " +
		"recovery state",
	Run: runErrAdrift,
}

// errAdriftPkgSuffixes are the package paths whose error results must be
// consumed.
var errAdriftPkgSuffixes = []string{
	"internal/wire",
	"internal/repository",
}

func runErrAdrift(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ExprStmt:
				if call, ok := x.X.(*ast.CallExpr); ok {
					checkDiscard(pass, call)
				}
			case *ast.AssignStmt:
				// _ = f() and _, _ = f(): every result blanked.
				allBlank := true
				for _, lhs := range x.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name != "_" {
						allBlank = false
						break
					}
				}
				if allBlank && len(x.Rhs) == 1 {
					if call, ok := x.Rhs[0].(*ast.CallExpr); ok {
						checkDiscard(pass, call)
					}
				}
			case *ast.DeferStmt:
				checkDiscard(pass, x.Call)
			case *ast.GoStmt:
				checkDiscard(pass, x.Call)
			}
			return true
		})
	}
	return nil
}

func checkDiscard(pass *Pass, call *ast.CallExpr) {
	fn := funcOf(pass.TypesInfo, call)
	if fn == nil || fn.Name() == "Close" {
		return
	}
	path := pkgPathOf(fn)
	inScope := false
	for _, suf := range errAdriftPkgSuffixes {
		if hasSuffix(path, suf) {
			inScope = true
			break
		}
	}
	if !inScope {
		return
	}
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	if res.Len() == 0 {
		return
	}
	if !isErrorType(res.At(res.Len() - 1).Type()) {
		return
	}
	pass.Reportf(call.Pos(), "error from %s.%s discarded: repository/wire write-path errors must be handled (or the discard annotated)", shortPkg(path), fn.Name())
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
