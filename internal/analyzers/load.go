package analyzers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listedPackage mirrors the subset of `go list -json` output the loader
// needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Standard   bool
	DepOnly    bool
	Export     string
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load enumerates the packages matching patterns (relative to dir) with
// `go list -export -deps`, then parses and type-checks every non-dependency
// match with go/parser + go/types. Imports — both standard library and
// module-internal — are resolved from the gc export data the go command
// produced, so the loader works offline and needs nothing beyond the
// toolchain.
//
// Test files are not loaded; `go vet` and `go test -race` cover them.
func Load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(listed))
	var targets []*listedPackage
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if lp.DepOnly || lp.Standard {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("fbvet: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		targets = append(targets, lp)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("fbvet: no packages match %v", patterns)
	}

	fset := token.NewFileSet()
	imp := exportDataImporter(fset, exports)
	var pkgs []*Package
	for _, lp := range targets {
		pkg, err := typeCheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("fbvet: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var out []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("fbvet: decoding go list output: %v", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// exportDataImporter adapts the gc importer to read export data from the
// paths `go list -export` reported. The importer caches, so shared packages
// are loaded once per Load call.
func exportDataImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("fbvet: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

func typeCheck(fset *token.FileSet, imp types.Importer, lp *listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("fbvet: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("fbvet: type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}
