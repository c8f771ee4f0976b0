// Package analyzers implements fbvet, a repo-specific static-analysis suite
// guarding the invariants the simulator's reproducibility and the paper's
// hot loops (OptCacheSelect, Landlord's credit ranking) depend on:
//
//   - mapiter: map iteration must not feed ordered decisions unsorted
//     (Go randomizes map range order per run).
//   - floateq: derived float64 values/credits must not be compared with
//     exact == / != (rounding noise would decide ties).
//   - sizeunits: 64-bit byte counters must not be narrowed or computed in
//     platform-width int arithmetic.
//   - ndtaint: wall-clock reads, global math/rand draws, and map-order-
//     dependent selections must not flow into simulation state (dataflow.go
//     is the taint engine; a seeded *rand.Rand from config is sanctioned).
//   - errflow: error values on simulator and cmd/ paths must not be dropped
//     by expression statements or overwritten before inspection.
//   - retrybound: retry loops must be attempt-bounded — an unbounded
//     `for { retry }` hangs forever on a persistent fault.
//   - pkgdoc: every package must carry a package documentation comment
//     (opening "Package <name>" for library packages) stating the paper
//     section it implements and its pipeline role.
//   - lockorder: the lock-acquisition graph (followed through in-package
//     helper calls, see summary.go) must be acyclic — a cycle is a
//     potential deadlock — and no mutex may be re-acquired while held.
//   - guardedby: fields annotated //fbvet:guardedby mu may only be touched
//     with mu held on the same object, never written under RLock, and the
//     annotated struct must not be copied.
//   - goroleak: goroutines spawned in loops need a WaitGroup bound or a
//     cancellation path; timers and tickers need a reachable Stop.
//   - hotcomplexity: no full re-sort inside a loop or inside a
//     contract-annotated function (the O(n log n) per-admission rebuild the
//     incremental ranking heap replaced).
//   - noescape, inline, nobce: the contract analyzers (contracts.go). A
//     function annotated //fbvet:noescape, //fbvet:inline or //fbvet:nobce
//     must satisfy the contract according to the Go compiler's own escape,
//     inlining and bounds-check diagnostics, and the perf manifest
//     (manifest.go) pins which hot-path functions must carry which contract.
//   - allowcheck: every //fbvet:allow directive must carry a justification,
//     name real analyzers, and actually suppress something.
//
// The suite runs over packages type-checked with the standard library's
// go/parser + go/types (loaded via `go list -export`, see load.go), so it
// needs no dependencies outside the Go toolchain; the flow-sensitive
// analyzers use the repo's own def-use taint engine (dataflow.go) in place
// of golang.org/x/tools/go/ssa. The contract analyzers additionally read a
// compiler-diagnostic sweep (internal/analyzers/perf), which SweepFor builds
// only when one of them is selected. cmd/fbvet is the driver.
//
// A diagnostic can be suppressed by a `//fbvet:allow <analyzer>` comment on
// the flagged line or the line directly above it; use sparingly and state
// why in the same comment.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"fbcache/internal/analyzers/perf"
)

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //fbvet:allow
	// directives.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Funcs lists every function declaration of the package with its
	// parsed contract directives (possibly none) and source range.
	Funcs []*AnnotFunc
	// Sweep holds the compiler diagnostics the contract analyzers read; nil
	// when no contract analyzer is running.
	Sweep *perf.Sweep

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportAt(p.Fset.Position(pos), format, args...)
}

// reportAt records a diagnostic at an explicit position (compiler
// diagnostics carry token.Position, not token.Pos).
func (p *Pass) reportAt(pos token.Position, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t, ok := p.TypesInfo.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the full fbvet suite: the per-file AST checks, the
// flow-sensitive dataflow analyzers (ndtaint, errflow — see dataflow.go),
// the interprocedural concurrency suite (lockorder, guardedby, goroleak —
// see summary.go), the performance checks (hotcomplexity and the contract
// analyzers), and the allow-directive self-check.
func All() []*Analyzer {
	suite := []*Analyzer{MapIter, FloatEq, SizeUnits, NDTaint, ErrFlow, RetryBound, PkgDoc, LockOrder, GuardedBy, GoroLeak, HotComplexity}
	suite = append(suite, contractAnalyzers()...)
	return append(suite, AllowCheck)
}

// contractAnalyzers returns the analyzers that enforce a function directive
// of their own name (//fbvet:noescape, ...) against the compiler sweep. It is
// the one list both the suite and the directive names derive from.
func contractAnalyzers() []*Analyzer {
	return []*Analyzer{NoEscape, Inline, NoBCE}
}

// funcDirectiveNames lists the function-declaration directives the contract
// analyzers enforce.
func funcDirectiveNames() []string {
	var names []string
	for _, a := range contractAnalyzers() {
		names = append(names, a.Name)
	}
	return names
}

// needsSweep reports whether any analyzer of suite reads compiler
// diagnostics, i.e. whether running it requires a -gcflags build.
func needsSweep(suite []*Analyzer) bool {
	for _, a := range contractAnalyzers() {
		if slices.Contains(suite, a) {
			return true
		}
	}
	return false
}

// SweepFor compiles patterns (relative to dir) with the compiler-diagnostic
// flags when suite needs them, and returns nil otherwise — so a suite
// without contract analyzers never builds anything.
func SweepFor(dir string, patterns []string, suite []*Analyzer) (*perf.Sweep, error) {
	if !needsSweep(suite) {
		return nil, nil
	}
	return perf.SweepPackages(dir, patterns)
}

// ByName resolves a comma-separated analyzer list ("mapiter,floateq").
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	return out, nil
}

// Run applies the analyzers to one loaded package and returns the surviving
// diagnostics sorted by position, with //fbvet:allow suppressions applied.
// sw is the compiler sweep of the package (see SweepFor); it may be nil only
// when no analyzer of the suite needs it. When allowcheck is among the
// analyzers, directives that name unknown analyzers or suppress nothing
// (while the named analyzer ran) are themselves reported — a stale allow is
// a hole in the net, so it cannot linger silently.
func Run(pkg *Package, analyzers []*Analyzer, sw *perf.Sweep) []Diagnostic {
	if sw == nil && needsSweep(analyzers) {
		panic("analyzers: Run needs a compiler sweep for the contract analyzers; see SweepFor")
	}
	root := ""
	if sw != nil {
		root = sw.Root
	}
	funcs := collectFuncs(pkg, root)
	directives, allowed := collectAllows(pkg.Fset, pkg.Files)
	used := make(map[allowKey]bool)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Funcs:     funcs,
			Sweep:     sw,
			report: func(d Diagnostic) {
				// The self-check cannot be suppressed: an unjustified allow
				// must not be able to allow itself.
				if d.Analyzer != AllowCheck.Name &&
					allowed[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
					used[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] = true
					return
				}
				diags = append(diags, d)
			},
		}
		a.Run(pass)
	}
	diags = append(diags, auditAllows(directives, used, analyzers)...)
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders diags by file, line, column, analyzer, message.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowDirective is one //fbvet:allow comment with its parsed analyzer
// names, kept for the unused-allow audit.
type allowDirective struct {
	pos   token.Position
	names []string
}

// collectAllows indexes //fbvet:allow directives. A directive suppresses the
// named analyzers on its own line and on the following line (so it can sit
// above the flagged statement). Only directive-form comments count — the
// marker must lead the comment — so prose that mentions the syntax (like this
// package's doc) neither suppresses anything nor triggers allowcheck.
func collectAllows(fset *token.FileSet, files []*ast.File) ([]allowDirective, map[allowKey]bool) {
	var directives []allowDirective
	out := make(map[allowKey]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := directiveTail(c.Text)
				if !ok {
					continue
				}
				// A block comment's closing marker is not an analyzer name.
				rest = strings.TrimSuffix(strings.TrimSpace(rest), "*/")
				// Take words up to a comment-style separator; "--" or "—"
				// introduce the justification.
				if cut := strings.IndexAny(rest, "—"); cut >= 0 {
					rest = rest[:cut]
				}
				if cut := strings.Index(rest, "--"); cut >= 0 {
					rest = rest[:cut]
				}
				pos := fset.Position(c.Pos())
				names := strings.FieldsFunc(rest, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				})
				directives = append(directives, allowDirective{pos: pos, names: names})
				for _, name := range names {
					out[allowKey{pos.Filename, pos.Line, name}] = true
					out[allowKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return directives, out
}

// auditAllows reports directives that name analyzers that do not exist, and
// directives that suppressed nothing even though the named analyzer ran.
// Only active when allowcheck itself is in the running suite, and a name is
// only called unused when its analyzer ran — `fbvet -run mapiter` must not
// condemn a perfectly live floateq allow.
func auditAllows(directives []allowDirective, used map[allowKey]bool, analyzers []*Analyzer) []Diagnostic {
	running := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		running[a.Name] = true
	}
	if !running[AllowCheck.Name] {
		return nil
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, d := range directives {
		for _, name := range d.names {
			switch {
			case !known[name]:
				diags = append(diags, Diagnostic{
					Pos:      d.pos,
					Analyzer: AllowCheck.Name,
					Message:  fmt.Sprintf("//fbvet:allow names unknown analyzer %q", name),
				})
			case running[name] &&
				!used[allowKey{d.pos.Filename, d.pos.Line, name}] &&
				!used[allowKey{d.pos.Filename, d.pos.Line + 1, name}]:
				diags = append(diags, Diagnostic{
					Pos:      d.pos,
					Analyzer: AllowCheck.Name,
					Message:  fmt.Sprintf("unused //fbvet:allow %s: it suppresses no diagnostic; delete it", name),
				})
			}
		}
	}
	return diags
}

// isFloat reports whether t's underlying type is a floating-point basic.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
