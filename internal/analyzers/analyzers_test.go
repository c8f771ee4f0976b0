package analyzers

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// loadTestdata parses and type-checks testdata/src/<name> against real
// standard-library export data, mirroring what the fbvet driver does for
// repo packages.
func loadTestdata(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}

	fset, imp, err := exportImporter(".", []string{
		"sort", "sync", "time", "math/rand", "errors", "fmt", "os", "strings",
	})
	if err != nil {
		t.Fatalf("building importer: %v", err)
	}

	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}
	tpkg, err := conf.Check(name, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking %s: %v", name, err)
	}
	return &Package{ImportPath: name, Dir: dir, Fset: fset, Files: files, Types: tpkg, TypesInfo: info}
}

// collectWants indexes `// want "substring" ...` comments by file:line.
func collectWants(t *testing.T, pkg *Package) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				rest := strings.TrimPrefix(text, "want ")
				for {
					rest = strings.TrimSpace(rest)
					if !strings.HasPrefix(rest, "\"") {
						break
					}
					end := strings.Index(rest[1:], "\"")
					if end < 0 {
						t.Fatalf("%s: unterminated want string %q", key, rest)
					}
					s, err := strconv.Unquote(rest[:end+2])
					if err != nil {
						t.Fatalf("%s: bad want string: %v", key, err)
					}
					wants[key] = append(wants[key], s)
					rest = rest[end+2:]
				}
			}
		}
	}
	return wants
}

// runGolden runs one analyzer over its testdata package and checks the
// diagnostics against the want comments in both directions.
func runGolden(t *testing.T, a *Analyzer) {
	t.Helper()
	runGoldenFile(t, a, "")
}

// runGoldenFile is runGolden restricted to the testdata file named file
// (every file when file is empty): wants and diagnostics elsewhere in the
// package are ignored.
func runGoldenFile(t *testing.T, a *Analyzer, file string) {
	t.Helper()
	pkg := loadTestdata(t, a.Name)
	inScope := func(filename string) bool { return file == "" || filepath.Base(filename) == file }

	got := make(map[string][]string)
	for _, d := range Run(pkg, []*Analyzer{a}, nil) {
		if inScope(d.Pos.Filename) {
			key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
			got[key] = append(got[key], d.Message)
		}
	}
	if len(got) == 0 {
		t.Fatalf("%s produced no diagnostics on its testdata %s; the true-positive "+
			"demonstrations are gone", a.Name, file)
	}
	wants := collectWants(t, pkg)
	for key := range wants {
		if !inScope(key[:strings.LastIndex(key, ":")]) {
			delete(wants, key)
		}
	}
	if len(wants) == 0 {
		t.Fatalf("testdata for %s has no want comments in %s", a.Name, file)
	}

	for key, substrs := range wants {
		msgs := got[key]
		if len(msgs) == 0 {
			t.Errorf("%s: want diagnostic containing %q, got none", key, substrs)
			continue
		}
		for _, sub := range substrs {
			found := false
			for _, m := range msgs {
				if strings.Contains(m, sub) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: no diagnostic contains %q; got %q", key, sub, msgs)
			}
		}
	}
	for key, msgs := range got {
		if _, ok := wants[key]; !ok {
			t.Errorf("%s: unexpected diagnostic(s) %q", key, msgs)
		}
	}
}

// TestMapIterGolden checks the map-iteration-order cases that ndtaint took
// over from the retired mapiter analyzer: every want in maporder.go is
// reported, and nothing else in that file is.
func TestMapIterGolden(t *testing.T) { runGoldenFile(t, NDTaint, "maporder.go") }

func TestFloatEqGolden(t *testing.T)    { runGolden(t, FloatEq) }
func TestNDTaintGolden(t *testing.T)    { runGolden(t, NDTaint) }
func TestErrFlowGolden(t *testing.T)    { runGolden(t, ErrFlow) }
func TestAllowCheckGolden(t *testing.T) { runGolden(t, AllowCheck) }
func TestPkgDocGolden(t *testing.T)     { runGolden(t, PkgDoc) }
func TestGoroLeakGolden(t *testing.T)   { runGolden(t, GoroLeak) }

// TestPkgDocPrefix checks the convention half of pkgdoc: a package whose
// comment exists but does not open "Package <name>" gets exactly one
// diagnostic, anchored to the package clause.
func TestPkgDocPrefix(t *testing.T) {
	pkg := loadTestdata(t, "pkgdocprefix")
	diags := Run(pkg, []*Analyzer{PkgDoc}, nil)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, `should start with "Package pkgdocprefix"`) {
		t.Errorf("unexpected message: %s", diags[0].Message)
	}
}

// TestPkgDocClean checks the analyzer stays silent on a conventionally
// documented package.
func TestPkgDocClean(t *testing.T) {
	pkg := loadTestdata(t, "pkgdocok")
	if diags := Run(pkg, []*Analyzer{PkgDoc}, nil); len(diags) != 0 {
		t.Fatalf("clean package produced diagnostics: %v", diags)
	}
}

// TestAllowCheckUnsuppressable proves an unjustified directive cannot allow
// itself: the testdata contains `fbvet:allow allowcheck` with a want marker,
// so if Run ever honored suppressions for the self-check, the golden pass
// above would fail with a missing diagnostic. This test pins the fixture.
func TestAllowCheckUnsuppressable(t *testing.T) {
	pkg := loadTestdata(t, "allowcheck")
	found := false
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "fbvet:allow allowcheck") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("allowcheck testdata lost its self-allow fixture; the bypass path is untested")
	}
	runGolden(t, AllowCheck)
}

// TestSuppressionDirective proves //fbvet:allow silences exactly the named
// analyzer on the annotated line: the floateq testdata contains an exact
// comparison carrying the directive and no want comment, so runGolden's
// "unexpected diagnostic" check would fail if suppression broke.
func TestSuppressionDirective(t *testing.T) {
	pkg := loadTestdata(t, "floateq")
	found := false
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "fbvet:allow floateq") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("floateq testdata lost its fbvet:allow directive; the suppression path is untested")
	}
	runGolden(t, FloatEq)
}

// TestByName checks analyzer selection parsing.
func TestByName(t *testing.T) {
	got, err := ByName("ndtaint, pkgdoc")
	if err != nil || len(got) != 2 || got[0] != NDTaint || got[1] != PkgDoc {
		t.Fatalf("ByName = %v, %v", got, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName should reject unknown analyzers")
	}
}

// TestRepoIsClean runs the full suite — the compiler-contract analyzers
// against a real -gcflags sweep included — over the whole repository, as
// the CI lint job does. Any new finding must be fixed or explicitly
// suppressed with a justified //fbvet:allow.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide analysis is slow; run without -short")
	}
	patterns := []string{"./..."}
	pkgs, err := Load("../..", patterns)
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern ./... should cover the repo", len(pkgs))
	}
	sw, err := SweepFor("../..", patterns, All())
	if err != nil {
		t.Fatalf("sweeping repo: %v", err)
	}
	for _, pkg := range pkgs {
		for _, d := range Run(pkg, All(), sw) {
			t.Errorf("%s", d)
		}
	}
}

// exportImporter returns a types.Importer resolving the given packages (and
// their dependencies) from gc export data built by the go command. The
// golden-test harness uses it to type-check testdata sources against real
// standard-library packages.
func exportImporter(dir string, pkgs []string) (*token.FileSet, types.Importer, error) {
	listed, err := goList(dir, pkgs)
	if err != nil {
		return nil, nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	fset := token.NewFileSet()
	return fset, exportDataImporter(fset, exports), nil
}
