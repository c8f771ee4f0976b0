package analyzers

import (
	"go/ast"
	"slices"
	"strings"
)

// AllowCheck is fbvet's self-check: every //fbvet:allow directive must carry
// a justification — a "—" or "--" separator followed by non-empty prose
// explaining why the finding is acceptable. Unjustified suppressions defeat
// the audit trail the suite exists to provide.
//
// It also audits the contract function directives (//fbvet:noescape,
// //fbvet:inline, //fbvet:nobce): the contract analyzers only honour them in
// a function declaration's doc comment, so one left anywhere else — stranded
// by a refactor, or trailing a statement — is a contract that silently
// stopped being enforced, and any other //fbvet:<name> spelling is a typo
// hiding a dead directive.
//
// AllowCheck diagnostics cannot themselves be suppressed (Run bypasses the
// allow table for them); the only fix is writing the justification.
var AllowCheck = &Analyzer{
	Name: "allowcheck",
	Doc: "flag //fbvet:allow directives that lack a justification " +
		"(\"— why this is safe\" after the analyzer names), perf directives " +
		"(//fbvet:noescape|inline|nobce) that are not function doc comments " +
		"and so bind to nothing, and unknown //fbvet:<name> spellings",
	Run: runAllowCheck,
}

func runAllowCheck(pass *Pass) {
	for _, f := range pass.Files {
		docs := funcDocGroups(f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := directiveTail(c.Text); ok {
					if allowJustification(rest) == "" {
						pass.Reportf(c.Pos(), "fbvet:allow directive lacks a justification; "+
							"append \"— <why this finding is safe here>\"")
					}
					continue
				}
				name, ok := fbvetDirectiveName(c.Text)
				if !ok {
					continue
				}
				if !slices.Contains(funcDirectiveNames(), name) {
					pass.Reportf(c.Pos(), "unknown fbvet directive //fbvet:%s (known: allow, %s)",
						name, strings.Join(funcDirectiveNames(), ", "))
					continue
				}
				if !docs[cg] {
					pass.Reportf(c.Pos(), "perf directive //fbvet:%s is not a function doc comment — "+
						"the contract analyzers only enforce it on a function declaration; move it onto the "+
						"function or delete the stale annotation", name)
				}
			}
		}
	}
}

// funcDocGroups returns the comment groups that are doc comments of function
// declarations — the only place the contract analyzers read //fbvet:<directive>
// annotations from.
func funcDocGroups(f *ast.File) map[*ast.CommentGroup]bool {
	docs := make(map[*ast.CommentGroup]bool)
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
			docs[fd.Doc] = true
		}
	}
	return docs
}

// fbvetDirectiveName extracts <name> from a comment that IS an "//fbvet:<name>"
// directive other than allow (directiveTail handles it). Prose merely mentioning
// the syntax mid-sentence does not count: the marker must lead the comment.
func fbvetDirectiveName(comment string) (string, bool) {
	body := strings.TrimPrefix(strings.TrimPrefix(comment, "//"), "/*")
	body = strings.TrimLeft(body, " \t")
	rest, ok := strings.CutPrefix(body, "fbvet:")
	if !ok {
		return "", false
	}
	name := rest
	if i := strings.IndexAny(name, " \t"); i >= 0 {
		name = name[:i]
	}
	name = strings.TrimSuffix(name, "*/")
	if name == "" || name == "allow" {
		return "", false
	}
	return name, true
}

// directiveTail returns the text after "fbvet:allow" when the comment IS a
// directive — the marker leads the comment — as opposed to prose that merely
// mentions one (doc comments quoting the syntax).
func directiveTail(comment string) (string, bool) {
	body := strings.TrimPrefix(strings.TrimPrefix(comment, "//"), "/*")
	body = strings.TrimLeft(body, " \t")
	if !strings.HasPrefix(body, "fbvet:allow") {
		return "", false
	}
	return body[len("fbvet:allow"):], true
}

// allowJustification extracts the justification text of a directive's tail
// (everything after the analyzer-name list), or "" when absent. The same
// separators collectAllows recognizes delimit it: an em-dash or "--".
func allowJustification(rest string) string {
	cut := -1
	if i := strings.Index(rest, "—"); i >= 0 {
		cut = i + len("—")
	}
	if i := strings.Index(rest, "--"); i >= 0 && (cut < 0 || i+2 < cut) {
		cut = i + 2
	}
	if cut < 0 || cut > len(rest) {
		return ""
	}
	return strings.TrimSpace(rest[cut:])
}
