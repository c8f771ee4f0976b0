package analyzers

// goroleak flags the two goroutine-lifecycle mistakes that matter for a
// long-running SRM daemon:
//
//   - goroutines spawned inside a loop with no visible bound: neither a
//     WaitGroup Add in the loop body nor, for go func literals, a
//     cancellation path inside the goroutine (a channel receive — which
//     covers <-ctx.Done() — or a WaitGroup Done). Every accepted
//     connection or queued job otherwise grows the goroutine count without
//     anything ever joining or stopping them.
//
//   - timers and tickers that can never be stopped: time.Tick (inherently
//     unstoppable — its ticker is unreachable), and time.AfterFunc /
//     NewTimer / NewTicker results that are discarded or held in a local
//     that neither has a Stop call anywhere in the function (a deferred
//     Stop is the usual shape) nor escapes to an owner who could stop it.
//
// "A Stop call anywhere in the function" is a deliberate approximation of
// "Stop on every exit path": a path-sensitive analysis would add little
// here because the dominant bug is the wholly missing Stop, and a
// conditional Stop is nearly always a deliberate handoff.

import (
	"go/ast"
	"go/types"
)

// GoroLeak flags unbounded goroutine spawns in loops and unstoppable
// timers/tickers.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc: "flag goroutines spawned in loops without a WaitGroup bound or " +
		"cancellation path, time.Tick, and AfterFunc/NewTimer/NewTicker " +
		"results that are never stopped and never escape",
	Run: runGoroLeak,
}

func runGoroLeak(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoInLoops(pass, fd.Body)
			checkTimers(pass, fd.Body)
		}
	}
}

// checkGoInLoops inspects every go statement lexically inside a loop body.
func checkGoInLoops(pass *Pass, body *ast.BlockStmt) {
	var loops []*ast.BlockStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, x.Body)
		case *ast.RangeStmt:
			loops = append(loops, x.Body)
		}
		return true
	})
	if len(loops) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		// Innermost enclosing loop body, by position containment.
		var loop *ast.BlockStmt
		for _, l := range loops {
			if l.Pos() <= g.Pos() && g.End() <= l.End() {
				if loop == nil || (loop.Pos() <= l.Pos() && l.End() <= loop.End()) {
					loop = l
				}
			}
		}
		if loop == nil {
			return true
		}
		if loopHasWaitGroupAdd(pass, loop) {
			return true
		}
		if lit, ok := g.Call.Fun.(*ast.FuncLit); ok && closureHasCancellation(lit) {
			return true
		}
		pass.Reportf(g.Pos(), "goroutine spawned in a loop without a WaitGroup Add in the loop or a cancellation path in the goroutine")
		return true
	})
}

// loopHasWaitGroupAdd reports a call to Add on a sync.WaitGroup anywhere in
// the loop body — the spawn-side half of the Add/Done/Wait discipline.
func loopHasWaitGroupAdd(pass *Pass, loop *ast.BlockStmt) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		if isWaitGroup(pass.TypeOf(sel.X)) {
			found = true
		}
		return true
	})
	return found
}

// isWaitGroup matches sync.WaitGroup, by value or pointer.
func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// closureHasCancellation reports whether the goroutine body contains a
// channel receive (covering <-ctx.Done() and done-channel idioms, in plain
// expressions or select clauses) or a call to a Done method (WaitGroup).
func closureHasCancellation(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				found = true
			}
		}
		return true
	})
	return found
}

// checkTimers flags time.Tick and never-stopped timer/ticker constructions.
func checkTimers(pass *Pass, body *ast.BlockStmt) {
	// Calls whose results are consumed by a surrounding expression — passed
	// on, returned, stored, sent — escape to an owner who can stop them.
	assignedTo := make(map[*ast.CallExpr]*ast.Ident)
	escaped := make(map[ast.Node]bool)
	markEscapes := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			escaped[n] = true
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					rhs := ast.Unparen(x.Rhs[i])
					call, ok := rhs.(*ast.CallExpr)
					if !ok {
						continue
					}
					if id, ok := x.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
						assignedTo[call] = id
					} else if sel, ok := x.Lhs[i].(*ast.SelectorExpr); ok {
						_ = sel
						escaped[call] = true // stored into a struct field
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				markEscapes(r)
			}
		case *ast.CallExpr:
			for _, a := range x.Args {
				markEscapes(a)
			}
		case *ast.CompositeLit:
			for _, e := range x.Elts {
				markEscapes(e)
			}
		case *ast.SendStmt:
			markEscapes(x.Value)
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name := calleePackage(pass, call)
		if pkg != "time" {
			return true
		}
		switch name {
		case "Tick":
			pass.Reportf(call.Pos(), "time.Tick leaks its ticker (no Stop is possible); use time.NewTicker with a deferred Stop")
			return true
		case "AfterFunc", "NewTimer", "NewTicker":
		default:
			return true
		}
		if escaped[call] {
			return true
		}
		id, ok := assignedTo[call]
		if !ok {
			pass.Reportf(call.Pos(), "time.%s result is discarded, so the %s can never be stopped", name, timerKind(name))
			return true
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil || identIsStoppedOrEscapes(pass, body, obj) {
			return true
		}
		pass.Reportf(call.Pos(), "time.%s result %q is never stopped and never escapes; the %s leaks", name, id.Name, timerKind(name))
		return true
	})
}

func timerKind(ctor string) string {
	if ctor == "NewTicker" {
		return "ticker"
	}
	return "timer"
}

// identIsStoppedOrEscapes reports whether the timer/ticker variable has a
// Stop call anywhere in the function, or flows somewhere an owner could
// stop it (call argument, return value, composite literal, channel send,
// stored through a selector/index).
func identIsStoppedOrEscapes(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	usesObj := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
				found = true
			}
			return true
		})
		return found
	}
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, isSel := x.Fun.(*ast.SelectorExpr); isSel && sel.Sel.Name == "Stop" {
				if id := firstIdent(sel.X); id != nil && pass.TypesInfo.ObjectOf(id) == obj {
					ok = true
					return true
				}
			}
			for _, a := range x.Args {
				if usesObj(a) {
					ok = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if usesObj(r) {
					ok = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range x.Elts {
				if usesObj(e) {
					ok = true
				}
			}
		case *ast.SendStmt:
			if usesObj(x.Value) {
				ok = true
			}
		case *ast.AssignStmt:
			for i, l := range x.Lhs {
				if _, isIdent := l.(*ast.Ident); isIdent {
					continue
				}
				if i < len(x.Rhs) && usesObj(x.Rhs[i]) {
					ok = true // stored through a field or element
				}
			}
		}
		return true
	})
	return ok
}
