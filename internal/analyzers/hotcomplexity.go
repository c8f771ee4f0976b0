package analyzers

import (
	"go/ast"
	"go/types"
)

// HotComplexity flags full-collection re-sort calls in hot scopes: a sort
// inside a loop body, or anywhere inside a function carrying a perf
// directive. A per-admission re-sort is the O(n log n) step the incremental ranking
// heap (DESIGN.md §13) replaced; this analyzer keeps one from creeping back
// in. It is AST-only: it reads the contract directives, not the compiler
// sweep.
var HotComplexity = &Analyzer{
	Name: "hotcomplexity",
	Doc: "flag sort.*/slices.Sort* calls inside loop bodies or inside functions " +
		"carrying a perf directive: a full re-sort per admission round is the " +
		"O(n log n) rebuild the incremental ranking heap (DESIGN.md §13) eliminated. " +
		"Hoist the sort out of the " +
		"loop or maintain the order incrementally.",
	Run: runHotComplexity,
}

// sortFuncs maps importable sorters to true. Predicates like IsSorted are
// O(n) scans, not rebuilds, and stay unflagged.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

func runHotComplexity(pass *Pass) {
	for _, f := range pass.Funcs {
		hot := len(f.Directives) > 0
		// Track loop nesting with a mark stack: ast.Inspect calls the
		// callback with nil after a node's children when the callback
		// returned true, so pushes and pops pair exactly.
		depth := 0
		var loops []bool
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			if n == nil {
				if loops[len(loops)-1] {
					depth--
				}
				loops = loops[:len(loops)-1]
				return true
			}
			isLoop := false
			switch n := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				isLoop = true
				depth++
			case *ast.CallExpr:
				if pkg, name, ok := sortCall(pass, n); ok && (depth > 0 || hot) {
					where := "inside a loop in " + f.Name
					if depth == 0 {
						where = "inside perf-contract function " + f.Name
					}
					pass.Reportf(n.Pos(), "%s.%s %s: a full re-sort on the admission path is O(n log n) — hoist it or maintain the order incrementally (DESIGN.md §13)", pkg, name, where)
				}
			}
			loops = append(loops, isLoop)
			return true
		})
	}
}

// sortCall reports whether call is pkg.Func for a known sorter, resolving
// the selector through go/types so a local variable named "sort" cannot
// confuse it.
func sortCall(pass *Pass, call *ast.CallExpr) (pkg, name string, ok bool) {
	sel, selOK := call.Fun.(*ast.SelectorExpr)
	if !selOK {
		return "", "", false
	}
	id, idOK := sel.X.(*ast.Ident)
	if !idOK {
		return "", "", false
	}
	pn, pnOK := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !pnOK {
		return "", "", false
	}
	funcs := sortFuncs[pn.Imported().Path()]
	if funcs == nil || !funcs[sel.Sel.Name] {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
