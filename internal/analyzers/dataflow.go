package analyzers

// This file is the suite's flow-sensitive substrate: a self-contained,
// intra-procedural dataflow (taint-propagation) engine built directly on
// go/ast + go/types. It plays the role golang.org/x/tools/go/ssa would play
// in a dependency-bearing repo — def-use propagation to a fixed point over
// loops — without leaving the standard toolchain: values produced by a
// source expression taint the variables they are assigned to, taint flows
// through expressions, assignments, conversions, method calls on tainted
// receivers, and range statements, and analyzers then ask where tainted
// values reach their sinks (state writes, returns, call arguments).
//
// The engine is deliberately conservative in both directions: calls with
// tainted *arguments* do not taint their results (or every seeded
// rand.New(rand.NewSource(seed)) chain would light up), while any lexical
// derivation of a tainted value, append included, stays tainted. Analyzers
// provide the source predicate; the engine owns propagation.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// taint records where a tainted value originated.
type taint struct {
	src  token.Pos // position of the source expression
	what string    // human description ("time.Now()", "unseeded math/rand call")
	// order marks a collection whose elements are deterministic but whose
	// order is not (a slice accumulated in a map range): ranging over it to
	// the end draws nothing, and a deterministic sort at sorted (if valid)
	// cleans every later use.
	order  bool
	sorted token.Pos
}

// taintSet maps tainted objects (local variables, named results) to their
// origin. The first origin to reach a variable wins; diagnostics point at it.
type taintSet map[types.Object]taint

// sourceFunc reports whether expression e introduces taint, and describes it.
type sourceFunc func(pass *Pass, e ast.Expr) (string, bool)

// maxTaintIters bounds the propagation fixpoint. Each iteration can only
// grow the taint set through chains of local assignments, so the loop
// terminates long before the bound on any real function; the bound is a
// defensive backstop, not a tuning knob.
const maxTaintIters = 16

// propagateTaint computes the tainted variables of one function body by
// iterating assignment/declaration/range propagation to a fixed point, so
// taint survives arbitrary statement order and loop-carried flows
// (x := time.Now(); for { y = x; state = y }). seed pre-taints objects whose
// taint is positional rather than expressional (map-range loop variables and
// accumulators); it may be nil.
func propagateTaint(pass *Pass, body *ast.BlockStmt, isSource sourceFunc, seed taintSet) taintSet {
	tainted := make(taintSet)
	for obj, t := range seed {
		tainted[obj] = t
	}
	for iter := 0; iter < maxTaintIters; iter++ {
		changed := false
		mark := func(id *ast.Ident, t taint) {
			obj := pass.TypesInfo.ObjectOf(id)
			if obj == nil || id.Name == "_" {
				return
			}
			if _, ok := tainted[obj]; !ok {
				tainted[obj] = t
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				taintAssign(pass, s, tainted, isSource, mark)
			case *ast.DeclStmt:
				gd, ok := s.Decl.(*ast.GenDecl)
				if !ok {
					return true
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							if t, ok := exprTaint(pass, vs.Values[i], tainted, isSource); ok {
								mark(name, t)
							}
						} else if len(vs.Values) == 1 {
							if t, ok := exprTaint(pass, vs.Values[0], tainted, isSource); ok {
								mark(name, t)
							}
						}
					}
				}
			case *ast.RangeStmt:
				// Ranging over a tainted collection taints the drawn elements;
				// over an order-tainted one, only a range that can stop early
				// draws an element that depends on the order.
				if t, ok := exprTaint(pass, s.X, tainted, isSource); ok && (!t.order || rangeExitsEarly(s.Body)) {
					if id, ok := s.Key.(*ast.Ident); ok {
						mark(id, t)
					}
					if id, ok := s.Value.(*ast.Ident); ok {
						mark(id, t)
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return tainted
}

// taintAssign propagates taint through one assignment statement.
func taintAssign(pass *Pass, s *ast.AssignStmt, tainted taintSet, isSource sourceFunc, mark func(*ast.Ident, taint)) {
	switch {
	case len(s.Lhs) == len(s.Rhs):
		for i := range s.Lhs {
			id, ok := s.Lhs[i].(*ast.Ident)
			if !ok {
				continue // field/index writes are sinks, not propagation
			}
			if t, ok := exprTaint(pass, s.Rhs[i], tainted, isSource); ok {
				mark(id, t)
				continue
			}
			// Compound assignment (x += tainted) keeps x's own taint via the
			// RHS check above; x op= clean does not clear existing taint.
		}
	case len(s.Rhs) == 1:
		// Multi-value: x, y := f() — a tainted producer taints every LHS.
		if t, ok := exprTaint(pass, s.Rhs[0], tainted, isSource); ok {
			for _, l := range s.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					mark(id, t)
				}
			}
		}
	}
}

// exprTaint reports whether e evaluates to a tainted value under the current
// taint set, walking the expression's own structure (not statements).
func exprTaint(pass *Pass, e ast.Expr, tainted taintSet, isSource sourceFunc) (taint, bool) {
	switch v := e.(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.ObjectOf(v); obj != nil {
			t, ok := tainted[obj]
			if ok && t.sorted.IsValid() && v.Pos() > t.sorted {
				return taint{}, false
			}
			return t, ok
		}
	case *ast.CallExpr:
		if what, ok := isSource(pass, v); ok {
			return taint{src: v.Pos(), what: what}, true
		}
		// append carries its operands' values and order into its result.
		if isBuiltinCall(pass, v, "append") {
			for _, arg := range v.Args {
				if t, ok := exprTaint(pass, arg, tainted, isSource); ok {
					return t, true
				}
			}
		}
		// A conversion is value-preserving: T(tainted) stays tainted.
		if tv, ok := pass.TypesInfo.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			return exprTaint(pass, v.Args[0], tainted, isSource)
		}
		// A method call on a tainted receiver derives from it (t.Unix(),
		// time.Now().UnixNano()). Calls with merely tainted arguments do not
		// taint their result — see the file comment. sel.X being directly a
		// package ident (rand.Float64) is a qualifier, not a receiver.
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
			isPkgQualifier := false
			if id, ok := sel.X.(*ast.Ident); ok {
				_, isPkgQualifier = pass.TypesInfo.ObjectOf(id).(*types.PkgName)
			}
			if !isPkgQualifier {
				if t, ok := exprTaint(pass, sel.X, tainted, isSource); ok {
					return t, true
				}
			}
		}
	case *ast.BinaryExpr:
		if t, ok := exprTaint(pass, v.X, tainted, isSource); ok {
			return t, ok
		}
		return exprTaint(pass, v.Y, tainted, isSource)
	case *ast.UnaryExpr:
		return exprTaint(pass, v.X, tainted, isSource)
	case *ast.ParenExpr:
		return exprTaint(pass, v.X, tainted, isSource)
	case *ast.StarExpr:
		return exprTaint(pass, v.X, tainted, isSource)
	case *ast.SelectorExpr:
		// Field of a tainted struct value.
		return exprTaint(pass, v.X, tainted, isSource)
	case *ast.IndexExpr:
		// Both the collection and the index key carry order/value taint:
		// m[taintedKey] selects an element under tainted control.
		if t, ok := exprTaint(pass, v.X, tainted, isSource); ok {
			return t, ok
		}
		return exprTaint(pass, v.Index, tainted, isSource)
	case *ast.SliceExpr:
		return exprTaint(pass, v.X, tainted, isSource)
	case *ast.TypeAssertExpr:
		return exprTaint(pass, v.X, tainted, isSource)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if t, ok := exprTaint(pass, el, tainted, isSource); ok {
				return t, ok
			}
		}
	case *ast.KeyValueExpr:
		return exprTaint(pass, v.Value, tainted, isSource)
	}
	return taint{}, false
}

// firstIdent returns the leftmost identifier of a selector chain, or nil.
func firstIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.CallExpr:
			e = v.Fun
		default:
			return nil
		}
	}
}

// calleePackage resolves the package a call's function selector refers to
// ("time", "math/rand"), or "" for local/method calls.
func calleePackage(pass *Pass, call *ast.CallExpr) (pkgPath, funcName string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := pass.TypesInfo.ObjectOf(id).(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// callResultsError reports whether call's type is error or its last tuple
// member is error.
func callResultsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(tup.Len() - 1).Type()
	}
	return types.Identical(t, errorType)
}

// isBuiltinCall reports whether call invokes the named predeclared builtin.
func isBuiltinCall(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return isBuiltin
}

// funcBodies visits every function body in the package (declarations and
// function literals are visited through their enclosing declaration once).
func funcBodies(pass *Pass, visit func(name string, body *ast.BlockStmt)) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			visit(fn.Name.Name, fn.Body)
		}
	}
}
