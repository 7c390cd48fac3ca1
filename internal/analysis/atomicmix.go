package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicMix enforces the repository's two memory-ordering hygiene
// rules:
//
//  1. No field may be accessed both through sync/atomic package
//     functions and through plain reads/writes. A mixed field has no
//     memory-order guarantee at all — the plain access races with the
//     atomic one and the race detector only catches the interleavings a
//     test happens to schedule. (Typed atomics — atomic.Uint64 and
//     friends — make the mix inexpressible and are the repository
//     standard; this analyzer guards the legacy pattern's fields.)
//
//  2. No obs instrument may be resolved inside a loop. Registry.Counter/
//     Gauge/GaugeFunc/Histogram are construction-time calls (they
//     allocate on first use and take a registry lock); the hot-path
//     contract in internal/obs is "resolve once, hold the pointer". A
//     lookup inside a for/range body turns a per-step increment into a
//     per-step map+mutex operation.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "flag fields accessed both via sync/atomic and plain reads/writes, " +
		"and obs instruments resolved inside loops instead of at " +
		"construction time",
	Run: runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	checkAtomicPlainMix(pass)
	checkObsInLoop(pass)
	return nil
}

// --- rule 1: atomic/plain mixing -------------------------------------------

func checkAtomicPlainMix(pass *Pass) {
	info := pass.TypesInfo

	// Pass 1: collect struct fields whose address is taken for a
	// sync/atomic call, remembering the selector nodes involved so pass
	// 2 can exempt them.
	atomicFields := make(map[*types.Var]token.Pos) // field -> first atomic use
	atomicUseSites := make(map[*ast.SelectorExpr]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcOf(info, call)
			if fn == nil || pkgPathOf(fn) != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if fv := fieldOf(info, sel); fv != nil {
					if _, seen := atomicFields[fv]; !seen {
						atomicFields[fv] = sel.Pos()
					}
					atomicUseSites[sel] = true
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return
	}

	// Pass 2: any other access to those fields is a plain access.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicUseSites[sel] {
				return true
			}
			fv := fieldOf(info, sel)
			if fv == nil {
				return true
			}
			if pos, isAtomic := atomicFields[fv]; isAtomic {
				pass.Reportf(sel.Pos(), "field %s is accessed with sync/atomic elsewhere (first at line %d) but plainly here: mixing atomic and plain access forfeits every ordering guarantee — use the atomic API (or a typed atomic) for all accesses",
					fv.Name(), pass.Fset.Position(pos).Line)
			}
			return true
		})
	}
}

// fieldOf resolves sel to the struct field it selects, or nil for
// methods, package qualifiers, and non-field selections.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj().(*types.Var)
}

// --- rule 2: obs instrument resolution in loops ----------------------------

func checkObsInLoop(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			loopWalk(pass, fd.Body, 0)
		}
	}
}

// loopWalk tracks loop depth through a function body. Function literals
// do not reset the depth: an instrument resolved in a closure created
// inside a loop is still resolved once per iteration.
func loopWalk(pass *Pass, n ast.Node, depth int) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.ForStmt:
			if s.Init != nil {
				loopWalk(pass, s.Init, depth)
			}
			if s.Cond != nil {
				loopWalk(pass, s.Cond, depth)
			}
			if s.Post != nil {
				loopWalk(pass, s.Post, depth+1)
			}
			loopWalk(pass, s.Body, depth+1)
			return false
		case *ast.RangeStmt:
			loopWalk(pass, s.X, depth)
			loopWalk(pass, s.Body, depth+1)
			return false
		case *ast.CallExpr:
			if depth > 0 {
				if name := obsResolveCall(pass.TypesInfo, s); name != "" {
					pass.Reportf(s.Pos(), "obs instrument resolved inside a loop: %s takes the registry lock and hashes the name on every iteration — resolve it once at construction time and reuse the instrument (see internal/obs)", name)
				}
			}
		}
		return true
	})
}

// obsResolveCall recognizes Registry.Counter/Gauge/GaugeFunc/Histogram
// calls from internal/obs.
func obsResolveCall(info *types.Info, call *ast.CallExpr) string {
	fn := funcOf(info, call)
	if fn == nil {
		return ""
	}
	switch fn.Name() {
	case "Counter", "Gauge", "GaugeFunc", "Histogram":
	default:
		return ""
	}
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil || !strings.HasSuffix(pkgPathOf(fn), "internal/obs") {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" {
		return ""
	}
	return "Registry." + fn.Name()
}
