package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NDTaint is the nondeterminism taint analyzer. It owns map order
// repo-wide: a map range hands on its elements in Go's randomized iteration
// order, so it taints the loop variables of a range that can exit early (the
// element held when it stops was drawn in random order) and every slice
// declared outside the range that its body appends to. Such an accumulator
// carries order taint: a call into sort or slices (or a callee named *sort*)
// sanitizes every later use, and ranging over it to the end is an
// order-independent reduction. Inside the simulation packages it also taints
// wall-clock reads (time.Now/Since/Until) and calls to the global math/rand
// generator, and flags goroutines that share unsynchronized local state with
// their spawning function.
//
// The dataflow engine (dataflow.go) carries taint to the sinks where a value
// reaches state another component can observe: a field or indexed write, a
// package-level variable, a return value, a call argument, or a channel
// send. An accumulator is reported once, at its map range, naming the first
// ordered use; other taint is reported at each sink.
//
// The sanctioned randomness source is a seeded *rand.Rand threaded through
// configuration (rand.New(rand.NewSource(seed))); method calls on such a
// generator are not tainted.
var NDTaint = &Analyzer{
	Name: "ndtaint",
	Doc: "flag map-order values (early-exit map-range elements, map-range accumulators used " +
		"before a deterministic sort) anywhere, and wall-clock and global math/rand values in " +
		"the simulation packages, flowing into state; and unsynchronized goroutine captures",
	Run: runNDTaint,
}

// ndtaintScope lists the package-path fragments that make up "simulation
// state" — everything that must be a deterministic function of the trace.
// Map order is checked everywhere; clocks, global randomness and goroutine
// captures only here.
var ndtaintScope = []string{
	"internal/core", "internal/simulate", "internal/srm", "internal/mss",
	"internal/grid", "internal/cache", "internal/history", "internal/policy",
	"internal/solver",
}

// inAnalyzerScope reports whether the package is subject to a scoped
// analyzer. The golden-test package shares the analyzer's name, mirroring
// how testdata/src is laid out.
func inAnalyzerScope(pass *Pass, scope []string) bool {
	path := pass.Pkg.Path()
	if path == pass.Analyzer.Name {
		return true
	}
	for _, s := range scope {
		if strings.Contains(path, s) {
			return true
		}
	}
	return false
}

func runNDTaint(pass *Pass) {
	inScope := inAnalyzerScope(pass, ndtaintScope)
	source := ndSource
	if !inScope {
		source = noSource
	}
	funcBodies(pass, func(name string, body *ast.BlockStmt) {
		seed := mapOrderSeeds(pass, body)
		if len(seed) > 0 || inScope {
			reportTaintSinks(pass, body, propagateTaint(pass, body, source, seed), source)
		}
		if inScope {
			checkGlobalRandMutators(pass, body)
			checkGoroutineCaptures(pass, body)
		}
	})
}

// noSource introduces no taint: outside the simulation packages only the
// map-order seeds flow.
func noSource(*Pass, ast.Expr) (string, bool) { return "", false }

// ndSource classifies taint-introducing calls.
func ndSource(pass *Pass, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	pkg, fn := calleePackage(pass, call)
	switch pkg {
	case "time":
		switch fn {
		case "Now", "Since", "Until":
			return "time." + fn + "()", true
		}
	case "math/rand", "math/rand/v2":
		// Constructors build the sanctioned seeded generator; everything else
		// at package level draws from the shared global source.
		switch fn {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return "", false
		}
		return "global " + pkg + "." + fn + "()", true
	}
	return "", false
}

// mapOrderSeeds pre-taints what the body's map ranges hand on in randomized
// order: the key/value variables of a range that can exit early, and the
// accumulators of every range (see NDTaint). An exhaustive range that only
// reduces (sums, set rebuilds) seeds nothing.
func mapOrderSeeds(pass *Pass, body *ast.BlockStmt) taintSet {
	seed := make(taintSet)
	ast.Inspect(body, func(n ast.Node) bool {
		r, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if typ := pass.TypeOf(r.X); typ == nil || !isMap(typ) {
			return true
		}
		if rangeExitsEarly(r.Body) {
			t := taint{src: r.Pos(), what: "an element drawn under randomized map iteration order"}
			for _, e := range []ast.Expr{r.Key, r.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						seed[obj] = t
					}
				}
			}
		}
		for obj, name := range accumulators(pass, r) {
			seed[obj] = taint{
				src:    r.Pos(),
				what:   "range over map " + types.ExprString(r.X) + " accumulates into " + name,
				order:  true,
				sorted: firstSort(pass, body, obj, r.End()),
			}
		}
		return true
	})
	return seed
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// accumulators finds the slice variables declared outside r that its body
// extends with v = append(v, ...).
func accumulators(pass *Pass, r *ast.RangeStmt) map[types.Object]string {
	out := make(map[types.Object]string)
	ast.Inspect(r.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i, l := range asg.Lhs {
			lhs, ok := l.(*ast.Ident)
			call, isCall := asg.Rhs[i].(*ast.CallExpr)
			if !ok || !isCall || !isBuiltinCall(pass, call, "append") {
				continue
			}
			obj := pass.TypesInfo.ObjectOf(lhs)
			if base, ok := call.Args[0].(*ast.Ident); ok && obj != nil &&
				pass.TypesInfo.ObjectOf(base) == obj && !(obj.Pos() >= r.Pos() && obj.Pos() < r.End()) {
				out[obj] = lhs.Name
			}
		}
		return true
	})
	return out
}

// firstSort returns the position of the first deterministic sort of obj
// after pos — a call into sort or slices, or to a callee whose name contains
// "sort", with obj among its arguments — or token.NoPos.
func firstSort(pass *Pass, body *ast.BlockStmt, obj types.Object, after token.Pos) token.Pos {
	first := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= after || (first.IsValid() && call.Pos() >= first) || !isSort(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					first = call.Pos()
				}
				return true
			})
		}
		return true
	})
	return first
}

// isSort reports whether call establishes a deterministic order.
func isSort(pass *Pass, call *ast.CallExpr) bool {
	if pkg, _ := calleePackage(pass, call); pkg == "sort" || pkg == "slices" {
		return true
	}
	name := ""
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	return strings.Contains(strings.ToLower(name), "sort")
}

// rangeExitsEarly reports whether the loop body can stop before visiting
// every element: a break at the loop's own level or any return.
func rangeExitsEarly(body *ast.BlockStmt) bool {
	early := false
	var walk func(n ast.Node, breakTarget bool)
	walk = func(n ast.Node, breakTarget bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if early {
				return false
			}
			switch s := m.(type) {
			case *ast.FuncLit:
				return false // its returns/breaks are not ours
			case *ast.ReturnStmt:
				early = true
				return false
			case *ast.BranchStmt:
				if s.Tok == token.BREAK && breakTarget && s.Label == nil {
					early = true
				}
				return false
			case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
				// Inspect visits n itself first; only a nested statement
				// rebinds break. Returns still escape it, so keep walking
				// with breaks retargeted.
				if m != n {
					walk(m, false)
					return false
				}
			}
			return true
		})
	}
	walk(body, true)
	return early
}

// reportTaintSinks walks one function body and reports every statement where
// a tainted value escapes into state another component can observe. An
// order-tainted accumulator is reported once, at its map range.
func reportTaintSinks(pass *Pass, body *ast.BlockStmt, tainted taintSet, source sourceFunc) {
	if len(tainted) == 0 && !hasDirectSource(pass, body, source) {
		return
	}
	reported := make(map[taint]bool)
	report := func(pos token.Pos, t taint, sink string) {
		switch {
		case !t.order:
			pass.Reportf(pos, "%s (from line %d) flows into %s; simulation state must be "+
				"deterministic — thread a seeded *rand.Rand (or trace-derived clock) through the config",
				t.what, pass.Fset.Position(t.src).Line, sink)
		case !reported[t]:
			reported[t] = true
			pass.Reportf(t.src, "%s, used for ordering at line %d (%s) without a deterministic sort; "+
				"sort the extracted keys first", t.what, pass.Fset.Position(pos).Line, sink)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, l := range s.Lhs {
				rhs := s.Rhs[0]
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				}
				t, ok := exprTaint(pass, rhs, tainted, source)
				if !ok {
					continue
				}
				switch lv := l.(type) {
				case *ast.SelectorExpr:
					report(s.Pos(), t, "field write "+types.ExprString(l))
				case *ast.IndexExpr:
					report(s.Pos(), t, "indexed write "+types.ExprString(l))
				case *ast.StarExpr:
					report(s.Pos(), t, "pointer write "+types.ExprString(l))
				case *ast.Ident:
					if v, ok := pass.TypesInfo.ObjectOf(lv).(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
						report(s.Pos(), t, "package-level variable "+lv.Name)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if t, ok := exprTaint(pass, r, tainted, source); ok {
					report(s.Pos(), t, "a return value")
				}
			}
		case *ast.SendStmt:
			if t, ok := exprTaint(pass, s.Value, tainted, source); ok {
				report(s.Pos(), t, "a channel send")
			}
		case *ast.IndexExpr:
			// Picking elements by position reads an accumulator's order.
			if t, ok := exprTaint(pass, s.X, tainted, source); ok && t.order {
				report(s.Pos(), t, "positional read "+types.ExprString(s))
			}
		case *ast.SliceExpr:
			if t, ok := exprTaint(pass, s.X, tainted, source); ok && t.order {
				report(s.Pos(), t, "positional read "+types.ExprString(s))
			}
		case *ast.CallExpr:
			// Passing a tainted value onward counts: the callee may store it.
			// Conversions, the source calls themselves and the builtins that
			// keep or measure a value are propagation, not sinks.
			if tv, ok := pass.TypesInfo.Types[s.Fun]; ok && tv.IsType() {
				return true
			}
			if _, isSrc := source(pass, s); isSrc {
				return true
			}
			if isBuiltinCall(pass, s, "append") || isBuiltinCall(pass, s, "len") || isBuiltinCall(pass, s, "cap") {
				return true
			}
			for _, arg := range s.Args {
				if t, ok := exprTaint(pass, arg, tainted, source); ok {
					report(arg.Pos(), t, "call argument of "+types.ExprString(s.Fun))
				}
			}
		}
		return true
	})
}

// checkGlobalRandMutators flags global-generator mutators whose whole effect
// is nondeterministic state: a discarded rand.Shuffle/Seed call never reaches
// a value sink but still perturbs the run.
func checkGlobalRandMutators(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkg, fn := calleePackage(pass, call); (pkg == "math/rand" || pkg == "math/rand/v2") &&
			(fn == "Shuffle" || fn == "Seed") {
			pass.Reportf(es.Pos(), "global %s.%s mutates the shared generator; "+
				"use the seeded *rand.Rand from the config", pkg, fn)
		}
		return true
	})
}

// hasDirectSource cheaply pre-screens a body for source calls so sink
// walking is skipped in the (common) clean case.
func hasDirectSource(pass *Pass, body *ast.BlockStmt, source sourceFunc) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := source(pass, call); ok {
				found = true
			}
		}
		return true
	})
	return found
}

// checkGoroutineCaptures flags `go func(){...}()` statements that share a
// captured local variable with the spawning function without visible
// synchronization: the goroutine writes a variable the function later reads
// (or vice versa). Channels, sync.* types, and closures that acquire a lock
// are exempt — the check targets plain shared counters and result slots,
// whose interleaving makes simulation output timing-dependent.
func checkGoroutineCaptures(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		if acquiresLock(lit.Body) {
			return true
		}
		for obj, name := range capturedVars(pass, body, lit) {
			if isSyncSafeType(obj.Type()) {
				continue
			}
			wIn := writesObj(pass, lit.Body, obj)
			rOut := accessesObjOutside(pass, body, lit, obj, g.End())
			wOut := writesObjOutsideAfter(pass, body, lit, obj, g.End())
			uIn := usesObj(pass, lit.Body, obj)
			if (wIn && rOut) || (wOut && uIn) {
				pass.Reportf(g.Pos(), "goroutine shares captured variable %q with its spawner "+
					"without synchronization; guard it with a mutex/channel or keep simulation "+
					"single-goroutine", name)
			}
		}
		return true
	})
}

// capturedVars lists local variables of the enclosing body that lit uses.
func capturedVars(pass *Pass, body *ast.BlockStmt, lit *ast.FuncLit) map[*types.Var]string {
	out := make(map[*types.Var]string)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared in the enclosing body, outside the literal.
		if v.Pos() >= body.Pos() && v.Pos() < body.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			out[v] = id.Name
		}
		return true
	})
	return out
}

// isSyncSafeType reports types whose sharing is inherently synchronized or
// conventional: channels, sync.* primitives, sync/atomic values, and
// pointers to them.
func isSyncSafeType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == "sync" || pkg.Path() == "sync/atomic"
}

// acquiresLock reports whether body contains a Lock/RLock call — a crude but
// effective signal that the closure participates in a locking protocol.
func acquiresLock(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Lock", "RLock", "TryLock", "TryRLock":
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func writesObj(pass *Pass, n ast.Node, obj *types.Var) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		switch s := m.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				if id, ok := l.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

func usesObj(pass *Pass, n ast.Node, obj *types.Var) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// accessesObjOutside reports a use of obj in body after pos, outside lit.
func accessesObjOutside(pass *Pass, body *ast.BlockStmt, lit *ast.FuncLit, obj *types.Var, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		if m == ast.Node(lit) {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && id.Pos() > pos && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// writesObjOutsideAfter reports an assignment to obj in body after pos,
// outside lit.
func writesObjOutsideAfter(pass *Pass, body *ast.BlockStmt, lit *ast.FuncLit, obj *types.Var, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		if m == ast.Node(lit) {
			return false
		}
		switch s := m.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				if id, ok := l.(*ast.Ident); ok && id.Pos() > pos && pass.TypesInfo.ObjectOf(id) == obj {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok && id.Pos() > pos && pass.TypesInfo.ObjectOf(id) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}
