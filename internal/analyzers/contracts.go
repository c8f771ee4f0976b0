package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"fbcache/internal/analyzers/perf"
)

// The three contract analyzers share one skeleton: for every function
// carrying the analyzer's directive, match the sweep diagnostics against the
// function's source range and report violations; then audit the package's
// manifest entries so a deleted annotation (or a renamed-away function) is a
// positioned finding rather than a silent hole.

// NoEscape enforces //fbvet:noescape: no value inside the function may move
// or leak to the heap.
var NoEscape = &Analyzer{
	Name: "noescape",
	Doc: "enforce //fbvet:noescape: the compiler's escape analysis must prove every " +
		"value in the function heap-free — no 'moved to heap', 'escapes to heap', or " +
		"heap-bound 'leaking param' diagnostic in the body, and no append growing a " +
		"local slice declared without a capacity (the runtime allocates its backing " +
		"array, which escape analysis does not report). Leaks that flow only to " +
		"results or through already-heap pointees are benign and accepted.",
	Run: runNoEscape,
}

func runNoEscape(pass *Pass) {
	for _, f := range pass.Funcs {
		if !f.Has("noescape") {
			continue
		}
		// -m -m emits each escape twice — once with the flow detail (message
		// ends ":") and once as a bare summary; dedupe on the normalized
		// message per position.
		type key struct {
			line, col int
			msg       string
		}
		seen := make(map[key]bool)
		for _, d := range pass.Sweep.InRange(f.File, f.StartLine, f.EndLine) {
			if d.Kind != perf.KindEscape && d.Kind != perf.KindLeakParam {
				continue
			}
			k := key{d.Line, d.Col, strings.TrimSuffix(d.Msg, ":")}
			if seen[k] {
				continue
			}
			seen[k] = true
			switch d.Kind {
			case perf.KindEscape:
				pass.reportAt(sweepPosition(pass, d), "%s is //fbvet:noescape but the compiler reports %q", f.Name, k.msg)
			case perf.KindLeakParam:
				pass.reportAt(sweepPosition(pass, d), "%s is //fbvet:noescape but parameter leaks to heap: %q", f.Name, k.msg)
			}
		}
		uncappedAppends(pass, f)
	}
	auditManifest(pass, "noescape")
}

// uncappedAppends reports append calls on a local slice declared without a
// capacity (var x []T, x := []T{}, x := []T(nil), x := make([]T, 0)). Every
// growth reallocates the backing array in the runtime's growslice, on the
// heap, and -m reports nothing for it — the one allocation the sweep cannot
// see.
func uncappedAppends(pass *Pass, f *AnnotFunc) {
	uncapped := make(map[types.Object]bool)
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if len(n.Values) == 0 || (i < len(n.Values) && lacksCapacity(pass, n.Values[i])) {
					uncapped[pass.TypesInfo.ObjectOf(id)] = true
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); ok && lacksCapacity(pass, n.Rhs[i]) {
					uncapped[pass.TypesInfo.ObjectOf(id)] = true
				}
			}
		case *ast.CallExpr:
			if !isBuiltinCall(pass, n, "append") || len(n.Args) == 0 {
				return true
			}
			if base, ok := n.Args[0].(*ast.Ident); ok && uncapped[pass.TypesInfo.ObjectOf(base)] {
				pass.Reportf(n.Pos(), "%s is //fbvet:noescape but append grows %q, declared without a capacity: "+
					"the runtime heap-allocates its backing array, which escape analysis does not report", f.Name, base.Name)
			}
		}
		return true
	})
}

// lacksCapacity classifies a slice initializer: an empty literal, a nil
// conversion or identifier, or make with a constant zero length and no
// capacity.
func lacksCapacity(pass *Pass, e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return len(v.Elts) == 0
	case *ast.CallExpr:
		if isBuiltinCall(pass, v, "make") {
			if len(v.Args) != 2 {
				return false
			}
			tv, ok := pass.TypesInfo.Types[v.Args[1]]
			return ok && tv.Value != nil && tv.Value.String() == "0"
		}
		if tv, ok := pass.TypesInfo.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			return pass.TypesInfo.Types[v.Args[0]].IsNil()
		}
	case *ast.Ident:
		return pass.TypesInfo.Types[v].IsNil()
	}
	return false
}

// Inline enforces //fbvet:inline: the function must carry a positive
// inlinability verdict so every direct call site gets it inlined.
var Inline = &Analyzer{
	Name: "inline",
	Doc: "enforce //fbvet:inline: the function must be inlinable ('can inline' verdict); " +
		"a 'cannot inline' verdict is reported with the compiler's reason (cost over " +
		"budget, defer, recursion, ...). A missing verdict of either polarity is also " +
		"reported — it means the sweep did not see the function at all.",
	Run: runInline,
}

func runInline(pass *Pass) {
	for _, f := range pass.Funcs {
		if !f.Has("inline") {
			continue
		}
		verdict := false
		for _, d := range pass.Sweep.InRange(f.File, f.StartLine, f.EndLine) {
			if d.Name != f.Name {
				continue
			}
			switch d.Kind {
			case perf.KindCanInline:
				verdict = true
			case perf.KindCannotInline:
				verdict = true
				pass.reportAt(sweepPosition(pass, d), "%s is //fbvet:inline but the compiler cannot inline it: %s", f.Name, d.Detail)
			}
		}
		if !verdict {
			pass.Reportf(f.Decl.Name.Pos(), "%s is //fbvet:inline but the sweep has no inlining verdict for it — diagnostic name mismatch or output shape change", f.Name)
		}
	}
	auditManifest(pass, "inline")
}

// NoBCE enforces //fbvet:nobce: the function must compile with zero bounds
// checks.
var NoBCE = &Analyzer{
	Name: "nobce",
	Doc: "enforce //fbvet:nobce: the SSA bounds-check-elimination pass must prove every " +
		"index and slice expression in the function ('Found IsInBounds'/'Found " +
		"IsSliceInBounds' must not appear). Hoist the bound or restructure the loop " +
		"until BCE succeeds.",
	Run: runNoBCE,
}

func runNoBCE(pass *Pass) {
	for _, f := range pass.Funcs {
		if !f.Has("nobce") {
			continue
		}
		type pos struct{ line, col int }
		// The SSA pass emits one line per residual check and duplicates
		// positions across funcs split by inlining; dedupe per position.
		seen := make(map[pos]bool)
		for _, d := range pass.Sweep.InRange(f.File, f.StartLine, f.EndLine) {
			if d.Kind != perf.KindBoundsCheck && d.Kind != perf.KindSliceBoundsCheck {
				continue
			}
			p := pos{d.Line, d.Col}
			if seen[p] {
				continue
			}
			seen[p] = true
			pass.reportAt(sweepPosition(pass, d), "%s is //fbvet:nobce but a bounds check survives BCE here (%s)", f.Name, d.Msg)
		}
	}
	auditManifest(pass, "nobce")
}

// sweepPosition converts a sweep diagnostic's root-relative location to the
// absolute form the loaded packages (and the SARIF emitter) use.
func sweepPosition(pass *Pass, d perf.Diag) token.Position {
	return token.Position{
		Filename: filepath.Join(pass.Sweep.Root, filepath.FromSlash(d.File)),
		Line:     d.Line,
		Column:   d.Col,
	}
}

// auditManifest reports, for one directive, every manifest contract of the
// package that is no longer satisfied structurally: the function lost the
// annotation, or no longer exists under the pinned name.
func auditManifest(pass *Pass, directive string) {
	for _, c := range manifest[pass.Pkg.Path()] {
		required := false
		for _, d := range c.Directives {
			if d == directive {
				required = true
				break
			}
		}
		if !required {
			continue
		}
		found := false
		for _, f := range pass.Funcs {
			if f.Name != c.Func {
				continue
			}
			found = true
			if !f.Has(directive) {
				pass.Reportf(f.Decl.Name.Pos(), "%s must carry //fbvet:%s (perf manifest pins this hot-path contract; see internal/analyzers/manifest.go)", c.Func, directive)
			}
		}
		if !found && len(pass.Files) > 0 {
			pass.Reportf(pass.Files[0].Package, "perf manifest pins //fbvet:%s on %s, but no such function exists in %s — update manifest.go or restore the function", directive, c.Func, pass.Pkg.Path())
		}
	}
}
