package perf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// --- diagnostic parsing ---------------------------------------------------

func TestClassify(t *testing.T) {
	cases := []struct {
		msg    string
		kind   Kind
		name   string
		detail string
	}{
		{"can inline add with cost 6 as: func(int, int) int { return a + b }", KindCanInline, "add", ""},
		{"can inline (*Store).Len with cost 4 as: method(*Store) func() int { return len(s.items) }", KindCanInline, "(*Store).Len", ""},
		{"can inline add", KindCanInline, "add", ""}, // plain -m / older toolchains
		{"cannot inline New: function too complex: cost 81 exceeds budget 80", KindCannotInline, "New", "function too complex: cost 81 exceeds budget 80"},
		{"cannot inline scan: unhandled op DEFER", KindCannotInline, "scan", "unhandled op DEFER"},
		{"inlining call to (*Cache).Free", KindInlineCall, "(*Cache).Free", ""},
		{"moved to heap: acc", KindEscape, "acc", ""},
		{"&Store{...} escapes to heap", KindEscape, "", ""},
		{"&Store{...} escapes to heap:", KindEscape, "", ""}, // -m -m flow-detail variant
		{"s does not escape", KindNoEscape, "", ""},
		{"leaking param: t", KindLeakParam, "t", ""},
		{"leaking param: dst to result ~r0 level=0", KindLeakBenign, "dst to result ~r0 level=0", ""},
		{"leaking param content: items", KindLeakBenign, "items", ""},
		{"parameter t leaks to {heap} with derefs=0:", KindInfo, "", ""},
		{"Found IsInBounds", KindBoundsCheck, "", ""},
		{"Found IsSliceInBounds", KindSliceBoundsCheck, "", ""},
		{"run capturing by value: fs (addr=false assign=false width=8)", KindInfo, "", ""},
		{"run capturing by ref: k (addr=false assign=true width=8)", KindInfo, "", ""},
		{"devirtualizing w.Write to *bytes.Buffer", KindInfo, "", ""},
		{"ignoring self-assignment in s.items = s.items", KindInfo, "", ""},
	}
	for _, c := range cases {
		kind, name, detail, ok := classify(c.msg)
		if !ok {
			t.Errorf("classify(%q): not recognised", c.msg)
			continue
		}
		if kind != c.kind || name != c.name || detail != c.detail {
			t.Errorf("classify(%q) = (%v, %q, %q), want (%v, %q, %q)",
				c.msg, kind, name, detail, c.kind, c.name, c.detail)
		}
	}
	if _, _, _, ok := classify("some future diagnostic we have never seen"); ok {
		t.Errorf("classify accepted an unknown shape")
	}
}

func TestParsePos(t *testing.T) {
	cases := []struct {
		line string
		file string
		ln   int
		col  int
		msg  string
		ok   bool
	}{
		{"internal/hot/hot.go:12:6: cannot inline New: reason", "internal/hot/hot.go", 12, 6, "cannot inline New: reason", true},
		{"internal/hot/hot.go:12: can inline mul", "internal/hot/hot.go", 12, 0, "can inline mul", true},
		{"<autogenerated>:1: Found IsInBounds", "<autogenerated>", 1, 0, "Found IsInBounds", true},
		{"# perffix/internal/hot", "", 0, 0, "", false},
		{"go: downloading something", "", 0, 0, "", false},
	}
	for _, c := range cases {
		file, ln, col, msg, ok := parsePos(c.line)
		if ok != c.ok {
			t.Errorf("parsePos(%q): ok = %v, want %v", c.line, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if file != c.file || ln != c.ln || col != c.col || msg != c.msg {
			t.Errorf("parsePos(%q) = (%q, %d, %d, %q), want (%q, %d, %d, %q)",
				c.line, file, ln, col, msg, c.file, c.ln, c.col, c.msg)
		}
	}
}

// readFixture loads one golden -gcflags output sample.
func readFixture(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	return string(data)
}

func kindCounts(sw *Sweep) map[Kind]int {
	counts := make(map[Kind]int)
	for _, ds := range sw.ByFile {
		for _, d := range ds {
			counts[d.Kind]++
		}
	}
	return counts
}

// TestParseSweepCurrentFixture pins the parser against a go1.24-format sample:
// -m -m verdicts with costs and flow details, BCE debug lines, and every info
// shape the sweep emits. A toolchain that drifts from this format must fail
// parsing loudly, not shift these counts silently.
func TestParseSweepCurrentFixture(t *testing.T) {
	sw, err := ParseSweep("/m", readFixture(t, "diag_current.txt"))
	if err != nil {
		t.Fatalf("ParseSweep: %v", err)
	}
	want := map[Kind]int{
		KindCanInline:        5,
		KindCannotInline:     3,
		KindInlineCall:       2,
		KindEscape:           6,
		KindNoEscape:         3,
		KindLeakParam:        1,
		KindLeakBenign:       2,
		KindInfo:             6,
		KindBoundsCheck:      2,
		KindSliceBoundsCheck: 1,
	}
	got := kindCounts(sw)
	for k, n := range want {
		if got[k] != n {
			t.Errorf("kind %v: got %d diagnostics, want %d", k, got[k], n)
		}
	}
	// <autogenerated> bounds checks must not be attributed to any file.
	for f := range sw.ByFile {
		if strings.Contains(f, "autogenerated") {
			t.Errorf("autogenerated diagnostics leaked into the sweep: %s", f)
		}
	}
	// Spot-check a verdict joined to its position.
	var rebuild *Diag
	for _, d := range sw.ByFile["internal/hot/hot.go"] {
		if d.Kind == KindCannotInline && d.Name == "(*Store).Rebuild" {
			rebuild = &d
			break
		}
	}
	if rebuild == nil {
		t.Fatalf("missing cannot-inline verdict for (*Store).Rebuild")
	}
	if rebuild.Line != 44 || !strings.Contains(rebuild.Detail, "cost 412") {
		t.Errorf("Rebuild verdict = line %d detail %q, want line 44 with cost 412", rebuild.Line, rebuild.Detail)
	}
	if got := sw.InRange("internal/loop/loop.go", 18, 18); len(got) != 2 {
		t.Errorf("InRange(loop.go, 18, 18) = %d diags, want the 2 bounds checks", len(got))
	}
}

// TestParseSweepLegacyFixture covers the plain -m / older-toolchain shapes:
// verdicts without costs, escape lines without flow details, and positions
// without a column.
func TestParseSweepLegacyFixture(t *testing.T) {
	sw, err := ParseSweep("/m", readFixture(t, "diag_legacy.txt"))
	if err != nil {
		t.Fatalf("ParseSweep: %v", err)
	}
	want := map[Kind]int{
		KindCanInline:    2,
		KindCannotInline: 1,
		KindInlineCall:   1,
		KindEscape:       2,
		KindNoEscape:     1,
		KindLeakParam:    1,
		KindLeakBenign:   1,
		KindBoundsCheck:  1,
	}
	got := kindCounts(sw)
	for k, n := range want {
		if got[k] != n {
			t.Errorf("kind %v: got %d diagnostics, want %d", k, got[k], n)
		}
	}
	// The column-free position must still parse ("hot.go:12: can inline mul").
	found := false
	for _, d := range sw.ByFile["internal/hot/hot.go"] {
		if d.Kind == KindCanInline && d.Name == "mul" && d.Line == 12 && d.Col == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("column-free legacy verdict for mul not parsed")
	}
}

func TestParseSweepUnknownShapeFails(t *testing.T) {
	out := strings.Join([]string{
		"# perffix/internal/hot",
		"internal/hot/hot.go:10:6: can inline add with cost 6 as: func(int, int) int { return a + b }",
		"internal/hot/hot.go:11:6: the compiler grew an entirely new diagnostic",
	}, "\n")
	_, err := ParseSweep("/m", out)
	if err == nil {
		t.Fatalf("ParseSweep accepted an unknown diagnostic shape")
	}
	if !strings.Contains(err.Error(), "Go version bump") {
		t.Errorf("error does not point at toolchain drift: %v", err)
	}
}

// TestParseSweepEmptyGateCanary: a sweep with no inlining verdicts at all
// cannot be a real -m run; the gate must refuse to pass vacuously.
func TestParseSweepEmptyGateCanary(t *testing.T) {
	out := "internal/hot/hot.go:25:2: moved to heap: buf\n"
	_, err := ParseSweep("/m", out)
	if err == nil {
		t.Fatalf("ParseSweep ran an empty gate")
	}
	if !strings.Contains(err.Error(), "empty gate") {
		t.Errorf("canary error missing: %v", err)
	}
}

// --- compiler naming ------------------------------------------------------

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

func TestDiagName(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"func Add(a, b int) int { return a + b }", "Add"},
		{"type T struct{}\n\nfunc (t T) Get() int { return 0 }", "T.Get"},
		{"type T struct{}\n\nfunc (t *T) Set(v int) {}", "(*T).Set"},
		{"type G[E any] struct{ v E }\n\nfunc (g G[E]) Val() E { return g.v }", "G.Val"},
		{"type G[E any] struct{ v E }\n\nfunc (g *G[E]) Put(v E) { g.v = v }", "(*G).Put"},
	}
	for _, c := range cases {
		if got := DiagName(parseDecl(t, c.src)); got != c.want {
			t.Errorf("DiagName(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}
