package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockSend flags a mutex held across a blocking channel operation or a
// blocking I/O call — the deadlock shape the server's session/outbox
// design and the shard worker protocol exist to avoid: a goroutine that
// blocks on a channel (or a stalled peer) while holding the lock that
// the draining goroutine needs wedges the whole engine.
//
// The analysis is intraprocedural and position-based: within one
// function body it tracks mu.Lock()/mu.RLock() ... mu.Unlock()/
// mu.RUnlock() spans (a deferred unlock holds to function end) and
// reports, inside a span:
//
//   - channel sends and receives, including range-over-channel, unless
//     they sit in a select that has a default clause (non-blocking);
//   - calls to known-blocking primitives: Read/Write/Flush on
//     internal/wire, net, and bufio types, (*sync.WaitGroup).Wait,
//     net.Listener.Accept, and time.Sleep.
//
// Function literals started with `go` are separate goroutines and are
// analyzed as their own contexts.
var LockSend = &Analyzer{
	Name: "locksend",
	Doc: "flag mutexes held across blocking channel operations or blocking " +
		"I/O — the session/outbox deadlock shape; drain outside the lock or " +
		"use a buffered, non-blocking handoff",
	Run: runLockSend,
}

func runLockSend(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkLockSpans(pass, fn.Body)
				}
				return false
			case *ast.FuncLit:
				checkLockSpans(pass, fn.Body)
				return false
			}
			return true
		})
	}
	return nil
}

// lockEvent is one Lock/Unlock call on a mutex root, ordered by
// position.
type lockEvent struct {
	pos  token.Pos
	root types.Object
	name string // printable receiver, e.g. "s.mu"
	lock bool
}

// checkLockSpans analyzes one function body in isolation.
func checkLockSpans(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	var events []lockEvent

	// Pass 1: collect lock/unlock events. Nested function literals are
	// separate contexts: their own walk handles them.
	inspectSameContext(body, func(n ast.Node) {
		var call *ast.CallExpr
		deferred := false
		switch x := n.(type) {
		case *ast.DeferStmt:
			call = x.Call
			deferred = true
		case *ast.ExprStmt:
			c, ok := x.X.(*ast.CallExpr)
			if !ok {
				return
			}
			call = c
		default:
			return
		}
		root, name, kind := mutexCall(info, call)
		if root == nil {
			return
		}
		switch kind {
		case "Lock", "RLock":
			if !deferred {
				events = append(events, lockEvent{pos: call.Pos(), root: root, name: name, lock: true})
			}
		case "Unlock", "RUnlock":
			if deferred {
				// Deferred unlock: the lock is held to function end; no
				// closing event.
				return
			}
			events = append(events, lockEvent{pos: call.Pos(), root: root, name: name})
		}
	})
	if len(events) == 0 {
		return
	}
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	heldAt := func(pos token.Pos) (types.Object, string, token.Pos) {
		held := make(map[types.Object]lockEvent)
		for _, ev := range events {
			if ev.pos >= pos {
				break
			}
			if ev.lock {
				held[ev.root] = ev
			} else {
				delete(held, ev.root)
			}
		}
		for root, ev := range held {
			return root, ev.name, ev.pos
		}
		return nil, "", token.NoPos
	}

	// Pass 2: find blocking operations and test whether a lock is held.
	report := func(pos token.Pos, what string) {
		if root, name, lockPos := heldAt(pos); root != nil {
			pass.Reportf(pos, "%s while holding %s (locked at line %d): blocking under a lock is the outbox deadlock shape — move the blocking operation outside the critical section", what, name, pass.Fset.Position(lockPos).Line)
		}
	}
	inspectSameContextAll(body, func(n ast.Node, selDefault bool) {
		switch x := n.(type) {
		case *ast.SendStmt:
			if !selDefault {
				report(x.Arrow, "channel send")
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !selDefault {
				report(x.OpPos, "channel receive")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					report(x.For, "range over channel")
				}
			}
		case *ast.CallExpr:
			if what := blockingCall(info, x); what != "" {
				report(x.Pos(), what)
			}
		}
	})
}

// mutexCall recognizes (root).Lock/RLock/Unlock/RUnlock() where the
// method is defined on a sync or project mutex type.
func mutexCall(info *types.Info, call *ast.CallExpr) (root types.Object, name, kind string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil, "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", ""
	}
	if pkgPathOf(fn) != "sync" {
		return nil, "", ""
	}
	root = rootObject(info, sel.X)
	if root == nil {
		return nil, "", ""
	}
	return root, exprString(sel.X), fn.Name()
}

// blockingCall classifies calls to known-blocking primitives.
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	fn := funcOf(info, call)
	if fn == nil {
		return ""
	}
	sig := fn.Type().(*types.Signature)
	path := pkgPathOf(fn)
	if sig.Recv() == nil {
		if path == "time" && fn.Name() == "Sleep" {
			return "time.Sleep"
		}
		return ""
	}
	switch fn.Name() {
	case "Read", "Write", "Flush", "ReadFull", "WriteString":
		switch {
		case path == "net" || path == "bufio" || path == "io":
			return "blocking " + shortPkg(path) + " " + fn.Name()
		case hasSuffix(path, "internal/wire"):
			return "blocking wire." + fn.Name()
		}
	case "Wait":
		if path == "sync" {
			// Name the receiver: WaitGroup.Wait and Cond.Wait block for
			// different reasons, and the finding should say which.
			return strings.TrimPrefix(types.TypeString(sig.Recv().Type(), nil), "*") + ".Wait"
		}
	case "Accept":
		if path == "net" {
			return "net.Listener.Accept"
		}
	}
	return ""
}

// inspectSameContext walks nodes of one function body without
// descending into nested function literals.
func inspectSameContext(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// inspectSameContextAll is inspectSameContext plus a flag telling the
// visitor whether the node sits inside a select statement that has a
// default clause (where channel operations are non-blocking).
func inspectSameContextAll(body *ast.BlockStmt, visit func(n ast.Node, inSelectWithDefault bool)) {
	var walk func(n ast.Node, selDefault bool)
	walk = func(n ast.Node, selDefault bool) {
		if n == nil {
			return
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return
		}
		if sel, ok := n.(*ast.SelectStmt); ok {
			hasDefault := false
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			for _, c := range sel.Body.List {
				cc := c.(*ast.CommClause)
				walk(cc.Comm, hasDefault)
				for _, s := range cc.Body {
					// The clause bodies run after the communication
					// resolved; blocking there is blocking regardless.
					walk(s, false)
				}
			}
			return
		}
		visit(n, selDefault)
		var children []ast.Node
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			if c != nil {
				children = append(children, c)
			}
			return false
		})
		for _, c := range children {
			walk(c, selDefault)
		}
	}
	for _, s := range body.List {
		walk(s, false)
	}
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return exprString(x.X)
	case *ast.UnaryExpr:
		return exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	default:
		return "mutex"
	}
}
