package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fbcache/internal/analyzers/perf"
)

// --- annotation extraction ------------------------------------------------

func parseDecl(t *testing.T, src string) *ast.FuncDecl {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", "package x\n\n"+src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return fd
		}
	}
	t.Fatalf("no func decl in %q", src)
	return nil
}

func TestFuncDirectives(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{"//fbvet:noescape\nfunc F() {}", []string{"noescape"}},
		{"// F does things.\n//\n//fbvet:inline hot accessor\n//fbvet:noescape\nfunc F() {}", []string{"noescape", "inline"}},
		{"//fbvet:nobce guarded indices\nfunc F() {}", []string{"nobce"}},
		{"//fbvet:noescapebogus\nfunc F() {}", nil},     // directive name must end at a space
		{"// fbvet:noescape\nfunc F() {}", nil},         // leading space is not the canonical spelling
		{"//fbvet:allow ndtaint — x\nfunc F() {}", nil}, // allow is not a contract directive
		{"func F() {}", nil},
	}
	for _, c := range cases {
		got := funcDirectives(parseDecl(t, c.src))
		if len(got) != len(c.want) {
			t.Errorf("funcDirectives(%q) = %v, want %v", c.src, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("funcDirectives(%q) = %v, want %v", c.src, got, c.want)
				break
			}
		}
	}
}

// --- contract analyzers against a crafted sweep ---------------------------

const contractSrc = `package hot

//fbvet:noescape
func Leaky() *int {
	x := 4 // ESCAPE-HERE
	return &x
}

//fbvet:noescape
func BenignLeak(p *int) *int {
	return p // BENIGN-HERE
}

//fbvet:noescape
func Waived() *int {
	y := 5 //fbvet:allow noescape — scratch pointer intentionally heap-bound in this fixture
	return &y
}

//fbvet:noescape
func Grow(xs []int) int {
	var out []int
	for _, x := range xs {
		out = append(out, x) // GROW-HERE
	}
	return len(out)
}

//fbvet:noescape
func Capped(xs []int) int {
	buf := make([]int, 0, 8)
	for _, x := range xs {
		buf = append(buf, x)
	}
	return len(buf)
}

//fbvet:inline
func Heavy(a int) int { // HEAVY-HERE
	return a * 2
}

//fbvet:inline
func Ghosted(a int) int {
	return a + 1
}

//fbvet:nobce
func Index(xs []int, i int) int {
	return xs[i] // BCE-HERE
}

func Plain(a int) int { return a - 1 }
`

// lineOf returns the 1-based line containing marker.
func lineOf(t *testing.T, src, marker string) int {
	t.Helper()
	i := strings.Index(src, marker)
	if i < 0 {
		t.Fatalf("marker %q not in source", marker)
	}
	return 1 + strings.Count(src[:i], "\n")
}

// loadSrc type-checks one import-free source file as a package rooted at
// root (the file is named <root>/hot.go so //fbvet:allow positions line up
// with sweep-diagnostic positions).
func loadSrc(t *testing.T, importPath, root, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join(root, "hot.go"), src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var conf types.Config
	tpkg, err := conf.Check(importPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking: %v", err)
	}
	return &Package{
		ImportPath: importPath, Dir: root, Fset: fset,
		Files: []*ast.File{f}, Types: tpkg, TypesInfo: info,
	}
}

func TestContractAnalyzers(t *testing.T) {
	pkg := loadSrc(t, "hot", "/m", contractSrc)
	mk := func(marker string, kind perf.Kind, name, detail, msg string) perf.Diag {
		return perf.Diag{
			File: "hot.go", Line: lineOf(t, contractSrc, marker), Col: 2,
			Kind: kind, Name: name, Detail: detail, Msg: msg,
		}
	}
	sw := &perf.Sweep{Root: "/m", ByFile: map[string][]perf.Diag{
		"hot.go": {
			mk("ESCAPE-HERE", perf.KindEscape, "", "", "moved to heap: x"),
			mk("BENIGN-HERE", perf.KindLeakBenign, "p to result ~r0 level=0", "", "leaking param: p to result ~r0 level=0"),
			mk("//fbvet:allow noescape", perf.KindEscape, "", "", "moved to heap: y"),
			mk("HEAVY-HERE", perf.KindCannotInline, "Heavy", "function too complex: cost 200 exceeds budget 80", "cannot inline Heavy: function too complex: cost 200 exceeds budget 80"),
			// Two checks at one position (inlined copies) plus one distinct.
			mk("BCE-HERE", perf.KindBoundsCheck, "", "", "Found IsInBounds"),
			mk("BCE-HERE", perf.KindBoundsCheck, "", "", "Found IsInBounds"),
			{File: "hot.go", Line: lineOf(t, contractSrc, "BCE-HERE"), Col: 9,
				Kind: perf.KindSliceBoundsCheck, Msg: "Found IsSliceInBounds"},
		},
	}}
	// allowcheck rides along: Waived's allow suppresses a real finding, so
	// the audit must not call it unused.
	diags := Run(pkg, []*Analyzer{NoEscape, Inline, NoBCE, AllowCheck}, sw)

	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Analyzer+": "+d.Message)
	}
	joined := strings.Join(msgs, "\n")
	if len(diags) != 6 {
		t.Fatalf("got %d findings, want 6:\n%s", len(diags), joined)
	}
	for _, want := range []string{
		`Leaky is //fbvet:noescape but the compiler reports "moved to heap: x"`,
		`Grow is //fbvet:noescape but append grows "out", declared without a capacity`,
		"Heavy is //fbvet:inline but the compiler cannot inline it: function too complex: cost 200 exceeds budget 80",
		"Ghosted is //fbvet:inline but the sweep has no inlining verdict",
		"Index is //fbvet:nobce but a bounds check survives BCE here (Found IsInBounds)",
		"Index is //fbvet:nobce but a bounds check survives BCE here (Found IsSliceInBounds)",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing finding %q in:\n%s", want, joined)
		}
	}
	for _, absent := range []string{"BenignLeak", "Waived", "Capped", "Plain", "allowcheck"} {
		if strings.Contains(joined, absent) {
			t.Errorf("unexpected finding about %s:\n%s", absent, joined)
		}
	}
	// The duplicate bounds-check position must be reported once.
	if n := strings.Count(joined, "(Found IsInBounds)"); n != 1 {
		t.Errorf("duplicate bounds-check positions reported %d times, want 1", n)
	}
	for _, d := range diags {
		if strings.HasPrefix(d.Message, "Grow ") && d.Pos.Line != lineOf(t, contractSrc, "GROW-HERE") {
			t.Errorf("growing-append finding at line %d, want the append", d.Pos.Line)
		}
	}
}

// TestManifestAudit: deleting a pinned annotation — or the pinned function —
// is itself a finding.
func TestManifestAudit(t *testing.T) {
	pkg := loadSrc(t, "hotmanifest", "/m2", contractSrc)
	manifest["hotmanifest"] = []Contract{
		{Func: "Plain", Directives: []string{"noescape"}}, // exists, unannotated
		{Func: "Ghost", Directives: []string{"inline"}},   // does not exist
	}
	t.Cleanup(func() { delete(manifest, "hotmanifest") })

	sw := &perf.Sweep{Root: "/m2", ByFile: map[string][]perf.Diag{}}
	diags := Run(pkg, []*Analyzer{NoEscape, Inline}, sw)
	var joined strings.Builder
	for _, d := range diags {
		joined.WriteString(d.Message + "\n")
	}
	if !strings.Contains(joined.String(), "Plain must carry //fbvet:noescape") {
		t.Errorf("missing-annotation audit finding absent:\n%s", joined.String())
	}
	if !strings.Contains(joined.String(), "no such function exists in hotmanifest") {
		t.Errorf("missing-function audit finding absent:\n%s", joined.String())
	}
}

// TestStalePerfAllowsReported: an //fbvet:allow naming a performance
// analyzer that suppresses nothing is reported by the allow audit like any
// other stale allow.
func TestStalePerfAllowsReported(t *testing.T) {
	const src = `package hot

func Tracer(n int) int {
	n++ //fbvet:allow noescape — STALE-NOESCAPE: nothing here is annotated, so nothing can escape
	//fbvet:allow hotcomplexity — STALE-HOTCOMPLEXITY: no sort on the next line
	return n + 1
}
`
	pkg := loadSrc(t, "hotstale", "/m4", src)
	sw := &perf.Sweep{Root: "/m4", ByFile: map[string][]perf.Diag{}}
	diags := Run(pkg, []*Analyzer{NoEscape, HotComplexity, AllowCheck}, sw)
	want := map[int]string{
		lineOf(t, src, "STALE-NOESCAPE"):      "unused //fbvet:allow noescape",
		lineOf(t, src, "STALE-HOTCOMPLEXITY"): "unused //fbvet:allow hotcomplexity",
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(diags), len(want), diags)
	}
	for _, d := range diags {
		if d.Analyzer != AllowCheck.Name || !strings.Contains(d.Message, want[d.Pos.Line]) {
			t.Errorf("line %d: got %s: %s, want allowcheck %q", d.Pos.Line, d.Analyzer, d.Message, want[d.Pos.Line])
		}
	}
}

// --- hotcomplexity --------------------------------------------------------

func TestHotComplexity(t *testing.T) {
	const src = `package hot

import "sort"

func SortLoop(xss [][]int) {
	for _, xs := range xss {
		sort.Ints(xs) // IN-LOOP
	}
}

//fbvet:nobce
func SortContract(xs []int) {
	sort.Ints(xs) // IN-CONTRACT
}

func SortOnce(xs []int) {
	sort.Ints(xs)
}

func ScanLoop(xss [][]int) {
	for _, xs := range xss {
		_ = sort.IntsAreSorted(xs) // predicate, not a rebuild
	}
}
`
	fset, imp, err := exportImporter(".", []string{"sort"})
	if err != nil {
		t.Fatalf("building importer: %v", err)
	}
	f, err := parser.ParseFile(fset, "/m3/hot.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check("hot", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking: %v", err)
	}
	pkg := &Package{ImportPath: "hot", Dir: "/m3", Fset: fset, Files: []*ast.File{f}, Types: tpkg, TypesInfo: info}

	// hotcomplexity reads directives, not compiler output: no sweep.
	diags := Run(pkg, []*Analyzer{HotComplexity}, nil)
	var joined strings.Builder
	for _, d := range diags {
		joined.WriteString(d.Message + "\n")
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(diags), joined.String())
	}
	if !strings.Contains(joined.String(), "sort.Ints inside a loop in SortLoop") {
		t.Errorf("loop sort not flagged:\n%s", joined.String())
	}
	if !strings.Contains(joined.String(), "sort.Ints inside perf-contract function SortContract") {
		t.Errorf("contract-function sort not flagged:\n%s", joined.String())
	}
	if strings.Contains(joined.String(), "SortOnce") || strings.Contains(joined.String(), "IntsAreSorted") {
		t.Errorf("cold or predicate sort flagged:\n%s", joined.String())
	}
}

// --- end to end against a real compiler -----------------------------------

const e2eSrc = `// Package perftest is a throwaway module for the contract analyzers.
package perftest

import "sort"

//fbvet:noescape
func Escapes() *int {
	x := 4
	return &x
}

//fbvet:noescape
func Grows(xs []int) int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return len(out)
}

//fbvet:inline
func TooBig(n int) int {
	if n <= 0 {
		return 0
	}
	return n + TooBig(n-1)
}

//fbvet:nobce
func Bce(xs, idx []int) int {
	s := 0
	for _, i := range idx {
		s += xs[i]
	}
	return s
}

//fbvet:inline
//fbvet:noescape
//fbvet:nobce
func Clean(a, b int) int {
	return a + b
}

func SortLoop(xss [][]int) {
	for _, xs := range xss {
		sort.Ints(xs)
	}
}

func Unannotated(a int) int {
	return a * 2 //fbvet:allow noescape — stale: nothing on this line escapes
}
`

// TestSweepEndToEnd builds a real throwaway module with -gcflags and drives
// the whole suite: the annotated violations must surface as positioned
// findings, the clean contract must stay silent, the injected manifest
// entries must flag a missing annotation and a vanished function, and the
// stale noescape allow must be reported.
func TestSweepEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a real module")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module perftest\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "perftest.go"), []byte(e2eSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest["perftest"] = []Contract{
		{Func: "Unannotated", Directives: []string{"noescape"}},
		{Func: "Ghost", Directives: []string{"inline"}},
	}
	t.Cleanup(func() { delete(manifest, "perftest") })

	patterns := []string{"."}
	pkgs, err := Load(dir, patterns)
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	sw, err := SweepFor(dir, patterns, All())
	if err != nil {
		t.Fatalf("sweeping: %v", err)
	}
	diags := Run(pkgs[0], All(), sw)
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.Pos.String()+": "+d.Analyzer+": "+d.Message)
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{
		"Escapes is //fbvet:noescape",
		`Grows is //fbvet:noescape but append grows "out"`,
		"TooBig is //fbvet:inline but the compiler cannot inline it",
		"Bce is //fbvet:nobce but a bounds check survives BCE",
		"sort.Ints inside a loop in SortLoop",
		"Unannotated must carry //fbvet:noescape",
		"no such function exists in perftest",
		"unused //fbvet:allow noescape",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing finding %q in:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "Clean") {
		t.Errorf("clean contract produced findings:\n%s", joined)
	}
	// Findings must be positioned inside the module.
	for _, d := range diags {
		if d.Pos.Filename == "" {
			t.Errorf("unpositioned finding: %s", d.Message)
		}
	}
}

// TestSweepOnlyWhenNeeded: a suite without contract analyzers builds
// nothing, so `fbvet -run pkgdoc` stays a pure go/types pass.
func TestSweepOnlyWhenNeeded(t *testing.T) {
	sw, err := SweepFor("/nonexistent", []string{"./..."}, []*Analyzer{PkgDoc, HotComplexity, AllowCheck})
	if sw != nil || err != nil {
		t.Fatalf("SweepFor without contract analyzers = %v, %v; want nil, nil", sw, err)
	}
	if !needsSweep(All()) {
		t.Fatal("the full suite must need the compiler sweep")
	}
}
