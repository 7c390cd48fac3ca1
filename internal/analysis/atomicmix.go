package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicMix enforces the internal/obs hot-path contract: no obs
// instrument may be resolved inside a loop. Registry.Counter/Gauge/
// GaugeFunc/SharedGaugeFunc/Histogram are construction-time calls (they allocate on
// first use and take a registry lock); the contract is "resolve once,
// hold the pointer". A lookup inside a for/range body turns a per-step
// increment into a per-step map+mutex operation.
//
// The atomic/plain field mix the name refers to needs no analyzer: the
// tree uses typed atomics (atomic.Uint64 and friends), which cannot be
// read plainly, and the race job fails on a mixed field.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "flag obs instruments resolved inside loops instead of at " +
		"construction time",
	Run: runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			loopWalk(pass, fd.Body, 0)
		}
	}
	return nil
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

// obsResolveCall recognizes Registry.Counter/Gauge/GaugeFunc/
// SharedGaugeFunc/Histogram calls from internal/obs.
func obsResolveCall(info *types.Info, call *ast.CallExpr) string {
	fn := funcOf(info, call)
	if fn == nil {
		return ""
	}
	switch fn.Name() {
	case "Counter", "Gauge", "GaugeFunc", "SharedGaugeFunc", "Histogram":
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
