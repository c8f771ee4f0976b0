package analyzers

import (
	"go/ast"
	"path/filepath"
	"strings"

	"fbcache/internal/analyzers/perf"
)

// AnnotFunc is one function declaration with its contract directives
// (possibly none) and the source range the compiler diagnostics are matched
// against.
type AnnotFunc struct {
	Decl *ast.FuncDecl
	// Name is the declaration rendered the way compiler diagnostics render
	// it: F for package functions, T.F for value-receiver methods, (*T).F
	// for pointer-receiver methods.
	Name string
	// File is the slash path of the declaring file, relative to the sweep
	// root when there is a sweep.
	File string
	// StartLine..EndLine spans the declaration including its body.
	StartLine, EndLine int
	// Directives holds the contract names from //fbvet:<name> lines in the
	// doc comment, in contract-analyzer order.
	Directives []string
}

// Has reports whether the function carries the named directive.
func (f *AnnotFunc) Has(name string) bool {
	for _, d := range f.Directives {
		if d == name {
			return true
		}
	}
	return false
}

// collectFuncs gathers every function declaration of the package with its
// parsed directives. root, when set, anchors the relative file paths used to
// join against sweep diagnostics.
func collectFuncs(pkg *Package, root string) []*AnnotFunc {
	var funcs []*AnnotFunc
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			start := pkg.Fset.Position(fd.Pos())
			end := pkg.Fset.Position(fd.End())
			rel := start.Filename
			if root != "" && filepath.IsAbs(rel) {
				if r, err := filepath.Rel(root, rel); err == nil {
					rel = r
				}
			}
			funcs = append(funcs, &AnnotFunc{
				Decl:       fd,
				Name:       perf.DiagName(fd),
				File:       filepath.ToSlash(filepath.Clean(rel)),
				StartLine:  start.Line,
				EndLine:    end.Line,
				Directives: funcDirectives(fd),
			})
		}
	}
	return funcs
}

// funcDirectives extracts the contract directive names from a declaration's
// doc comment. Only the canonical //fbvet:<name> spelling counts (the
// directive must lead the comment, matching the //fbvet:allow discipline);
// trailing text after a space is free-form rationale.
func funcDirectives(fd *ast.FuncDecl) []string {
	if fd.Doc == nil {
		return nil
	}
	var out []string
	for _, name := range funcDirectiveNames() {
		for _, c := range fd.Doc.List {
			rest, ok := strings.CutPrefix(c.Text, "//fbvet:"+name)
			if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
				out = append(out, name)
				break
			}
		}
	}
	return out
}
