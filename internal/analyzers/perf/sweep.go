// Package perf runs fbvet's compiler-diagnostic sweep. It compiles the
// target packages with
//
//	go build -gcflags='-m -m -d=ssa/check_bce/debug=1'
//
// and parses the escape-analysis, inlining, and bounds-check-elimination
// output into positioned findings (diag.go). The contract analyzers of
// internal/analyzers (noescape, inline, nobce) read the parsed sweep to keep
// the paper's hot loops — the OptCacheSelect admission round and Landlord's
// credit ranking — allocation-free and bounds-check-free; fbvet builds the
// sweep only when one of them is selected. An unrecognised diagnostic shape,
// or a sweep with no inlining verdicts at all, is a hard error, so a
// toolchain that changes its output format fails the gate instead of
// emptying it.
package perf

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Sweep holds the parsed compiler diagnostics of one build of the target
// packages with escape-analysis, inlining, and BCE debugging enabled.
type Sweep struct {
	// Root is the absolute module root the build ran in; diagnostic file
	// paths are stored relative to it (slash-separated).
	Root string
	// ByFile indexes the diagnostics by root-relative slash path.
	ByFile map[string][]Diag
}

// sweepGcflags is the compiler flag set the contracts are defined against:
// -m -m for escape/inline verdicts with reasons, and the check_bce debug key
// for residual bounds checks. The flags apply to the named packages only
// (not dependencies), which is exactly the scope the contracts cover.
const sweepGcflags = "-gcflags=-m -m -d=ssa/check_bce/debug=1"

// SweepPackages builds patterns (e.g. "./...") from root with sweepGcflags
// and parses the diagnostics. The build artifacts are discarded (-o
// os.DevNull, so a pattern naming a single main package does not drop its
// executable into root); go build's cache replays the diagnostics of
// unchanged packages, so repeated sweeps are cheap.
func SweepPackages(root string, patterns []string) (*Sweep, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("perf sweep: %w", err)
	}
	args := append([]string{"build", "-o", os.DevNull, sweepGcflags}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = abs
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("perf sweep: go build failed: %w\n%s", err, out)
	}
	return ParseSweep(abs, string(out))
}

// ParseSweep parses raw sweep output against the given module root. Split
// from SweepPackages so the golden-fixture tests exercise the full pipeline
// without running a compiler.
//
// It enforces the gate's canary: a sweep that yields no inlining verdicts at
// all cannot be a real -m run over non-trivial packages — it means the
// toolchain stopped emitting the expected format, and the gate must fail
// loudly rather than pass vacuously.
func ParseSweep(root, output string) (*Sweep, error) {
	diags, err := parseDiagnostics(output)
	if err != nil {
		return nil, err
	}
	verdicts := 0
	byFile := make(map[string][]Diag)
	for _, d := range diags {
		if d.Kind == KindCanInline || d.Kind == KindCannotInline {
			verdicts++
		}
		f := d.File
		if filepath.IsAbs(f) {
			rel, err := filepath.Rel(root, f)
			if err != nil || strings.HasPrefix(rel, "..") {
				// Outside the module (vendored toolchain paths); the
				// contracts only cover module files.
				continue
			}
			f = rel
		}
		f = filepath.ToSlash(filepath.Clean(f))
		d.File = f
		byFile[f] = append(byFile[f], d)
	}
	if verdicts == 0 {
		return nil, fmt.Errorf("perf sweep: compiler emitted no inlining verdicts — -gcflags output shape changed (Go version bump?); refusing to run an empty gate")
	}
	return &Sweep{Root: root, ByFile: byFile}, nil
}

// InRange returns the diagnostics of file (root-relative slash path) whose
// line falls in [start, end].
func (s *Sweep) InRange(file string, start, end int) []Diag {
	var out []Diag
	for _, d := range s.ByFile[file] {
		if d.Line >= start && d.Line <= end {
			out = append(out, d)
		}
	}
	return out
}
