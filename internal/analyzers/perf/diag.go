package perf

import (
	"fmt"
	"go/ast"
	"strconv"
	"strings"
)

// Kind classifies one compiler diagnostic line.
type Kind int

const (
	// KindInfo is a recognised but contract-neutral diagnostic (devirtualization,
	// closure capture notes, self-assignment elision, parameter flow summaries).
	KindInfo Kind = iota
	// KindCanInline is an inlinability verdict: "can inline F [with cost N ...]".
	KindCanInline
	// KindCannotInline is the negative verdict with the compiler's reason.
	KindCannotInline
	// KindInlineCall marks an inlined call site: "inlining call to F".
	KindInlineCall
	// KindEscape is a heap escape: "moved to heap: x" or "x escapes to heap".
	KindEscape
	// KindLeakParam is a parameter leaking to the heap ("leaking param: x"
	// with no result destination) — an escape chargeable to the caller.
	KindLeakParam
	// KindLeakBenign is a non-heap leak: "leaking param: x to result ~rN"
	// (flows only to a return value) or "leaking param content: x" (the
	// pointee, already heap-reachable, is stored through — no new allocation).
	KindLeakBenign
	// KindNoEscape is the negative escape verdict: "x does not escape".
	KindNoEscape
	// KindBoundsCheck is an unproven index: "Found IsInBounds".
	KindBoundsCheck
	// KindSliceBoundsCheck is an unproven slice expression: "Found IsSliceInBounds".
	KindSliceBoundsCheck
)

// String names the kind for findings and test failures.
func (k Kind) String() string {
	switch k {
	case KindInfo:
		return "info"
	case KindCanInline:
		return "can-inline"
	case KindCannotInline:
		return "cannot-inline"
	case KindInlineCall:
		return "inline-call"
	case KindEscape:
		return "escape"
	case KindLeakParam:
		return "leaking-param"
	case KindLeakBenign:
		return "leak-benign"
	case KindNoEscape:
		return "no-escape"
	case KindBoundsCheck:
		return "bounds-check"
	case KindSliceBoundsCheck:
		return "slice-bounds-check"
	}
	return "unknown"
}

// Diag is one positioned compiler diagnostic.
type Diag struct {
	// File is the root-relative slash path the compiler reported.
	File string
	// Line and Col are 1-based.
	Line, Col int
	Kind      Kind
	// Name is the function the diagnostic is about, for inlining verdicts —
	// rendered the way the compiler renders it: F, T.F, (*T).F, F.func1.
	Name string
	// Detail is the reason clause ("function too complex: ...") for
	// cannot-inline verdicts.
	Detail string
	// Msg is the full message text after the position.
	Msg string
}

// classify maps one message (the text after "file:line:col: ") to its kind.
// It must recognise every shape the sweep's -gcflags combination emits; an
// unknown shape is a hard error in the caller, so a Go toolchain that
// changes its diagnostic format fails the gate loudly instead of silently
// matching nothing (the ISSUE's "empty gate" failure mode).
func classify(msg string) (kind Kind, name, detail string, ok bool) {
	switch {
	case strings.HasPrefix(msg, "can inline "):
		rest := strings.TrimPrefix(msg, "can inline ")
		// -m -m appends "with cost N as: <signature>"; plain -m does not.
		name, _, _ = strings.Cut(rest, " with cost ")
		return KindCanInline, strings.TrimSpace(name), "", true
	case strings.HasPrefix(msg, "cannot inline "):
		rest := strings.TrimPrefix(msg, "cannot inline ")
		name, detail, _ = strings.Cut(rest, ": ")
		return KindCannotInline, strings.TrimSpace(name), detail, true
	case strings.HasPrefix(msg, "inlining call to "):
		return KindInlineCall, strings.TrimPrefix(msg, "inlining call to "), "", true
	case strings.HasPrefix(msg, "moved to heap: "):
		return KindEscape, strings.TrimPrefix(msg, "moved to heap: "), "", true
	case strings.HasSuffix(msg, " escapes to heap") || strings.HasSuffix(msg, " escapes to heap:"):
		return KindEscape, "", "", true
	case strings.HasSuffix(msg, " does not escape"):
		return KindNoEscape, "", "", true
	case strings.HasPrefix(msg, "leaking param content: "):
		// The pointee is already heap-reachable; storing through it
		// allocates nothing new.
		return KindLeakBenign, strings.TrimPrefix(msg, "leaking param content: "), "", true
	case strings.HasPrefix(msg, "leaking param: "):
		rest := strings.TrimPrefix(msg, "leaking param: ")
		if strings.Contains(rest, " to result ") {
			// Flows only to a return value — the caller decides whether
			// that escapes.
			return KindLeakBenign, rest, "", true
		}
		return KindLeakParam, rest, "", true
	case strings.HasPrefix(msg, "parameter ") && strings.Contains(msg, " leaks to "):
		// -m -m flow summary expanding a leaking-param verdict; the verdict
		// line itself is what the contracts act on.
		return KindInfo, "", "", true
	case msg == "Found IsInBounds":
		return KindBoundsCheck, "", "", true
	case msg == "Found IsSliceInBounds":
		return KindSliceBoundsCheck, "", "", true
	case strings.Contains(msg, " capturing by value: ") || strings.Contains(msg, " capturing by ref: "):
		return KindInfo, "", "", true
	case strings.HasPrefix(msg, "devirtualizing "):
		return KindInfo, "", "", true
	case strings.Contains(msg, "ignoring self-assignment"):
		return KindInfo, "", "", true
	}
	return 0, "", "", false
}

// parsePos splits "file:line:col: msg" (or "file:line: msg"). reported=false
// means the line is not positioned at all (package headers, blank lines).
func parsePos(line string) (file string, ln, col int, msg string, ok bool) {
	// Scan for ":<digits>:" — the first such marker ends the file path
	// (repo paths contain no colons).
	i := strings.Index(line, ":")
	for i >= 0 {
		rest := line[i+1:]
		j := 0
		for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
			j++
		}
		if j > 0 && j < len(rest) && rest[j] == ':' {
			file = line[:i]
			ln, _ = strconv.Atoi(rest[:j])
			rest = rest[j+1:]
			// Optional column.
			k := 0
			for k < len(rest) && rest[k] >= '0' && rest[k] <= '9' {
				k++
			}
			if k > 0 && k < len(rest) && rest[k] == ':' {
				col, _ = strconv.Atoi(rest[:k])
				rest = rest[k+1:]
			}
			msg = strings.TrimPrefix(rest, " ")
			return file, ln, col, msg, true
		}
		next := strings.Index(rest, ":")
		if next < 0 {
			break
		}
		i += 1 + next
	}
	return "", 0, 0, "", false
}

// parseDiagnostics parses the stderr of the sweep build. Unpositioned lines
// must be package headers ("# import/path"); positioned lines must classify;
// anything else is an error so format drift cannot silently pass the gate.
func parseDiagnostics(output string) ([]Diag, error) {
	var diags []Diag
	var unknown []string
	for _, raw := range strings.Split(output, "\n") {
		if raw == "" || strings.HasPrefix(raw, "# ") {
			continue
		}
		file, ln, col, msg, ok := parsePos(raw)
		if !ok {
			unknown = append(unknown, raw)
			continue
		}
		if strings.HasPrefix(file, "<autogenerated>") {
			continue
		}
		if msg == "" || msg[0] == ' ' || msg[0] == '\t' {
			// Indented detail line ("flow: ...", "from ... at ...")
			// expanding the preceding verdict.
			continue
		}
		kind, name, detail, ok := classify(msg)
		if !ok {
			unknown = append(unknown, raw)
			continue
		}
		diags = append(diags, Diag{
			File: file, Line: ln, Col: col,
			Kind: kind, Name: name, Detail: detail, Msg: msg,
		})
	}
	if len(unknown) > 0 {
		n := len(unknown)
		if n > 5 {
			unknown = unknown[:5]
		}
		return nil, fmt.Errorf(
			"perf sweep: %d unrecognised compiler diagnostic line(s) — -gcflags output shape changed (Go version bump?); first lines:\n  %s",
			n, strings.Join(unknown, "\n  "))
	}
	return diags, nil
}

// DiagName renders a declaration the way gc diagnostics name it: F for
// package functions, T.F for value-receiver methods, (*T).F for
// pointer-receiver methods.
func DiagName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		return "(*" + typeName(star.X) + ")." + fd.Name.Name
	}
	return typeName(t) + "." + fd.Name.Name
}

func typeName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return typeName(t.X)
	case *ast.IndexListExpr:
		return typeName(t.X)
	}
	return ""
}
