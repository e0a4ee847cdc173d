package analysis

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
	"strings"
)

// A LoadedPackage is one type-checked target package ready for analysis.
type LoadedPackage struct {
	// PkgPath is the package's import path.
	PkgPath string
	// Fset maps positions (shared across the load).
	Fset *token.FileSet
	// Files is the parsed syntax, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds type-checker findings.
	Info *types.Info
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	DepOnly    bool
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") in dir to packages, builds export
// data for their dependency closure via `go list -export`, and type-checks
// each target package from source. The go command does the dependency
// compilation (cached), so Load works offline and needs no module
// downloads. Only a package's GoFiles are read: `go list` reports test
// files separately, so no _test.go file reaches an analyzer. A pattern
// may name a testdata directory outright, which is how the fixtures load.
func Load(dir string, patterns []string) ([]*LoadedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,CgoFiles,DepOnly,ImportMap,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{}   // import path → export data file
	importMap := map[string]string{} // source import path → resolved path
	var targets []listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for src, resolved := range p.ImportMap {
			importMap[src] = resolved
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports, importMap)

	var out []*LoadedPackage
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			// cgo packages need preprocessed sources; none exist in
			// this repository, so skip rather than mis-parse.
			continue
		}
		lp, err := typeCheck(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, lp)
	}
	return out, nil
}

// typeCheck parses and type-checks one package's files.
func typeCheck(fset *token.FileSet, imp types.Importer, pkgPath, dir string, goFiles []string) (*LoadedPackage, error) {
	var files []*ast.File
	for _, name := range goFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", pkgPath, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("%s: typecheck: %v", pkgPath, err)
	}
	return &LoadedPackage{PkgPath: pkgPath, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// newExportImporter returns a types.Importer that resolves imports from the
// gc export data files `go list -export` reports. The importer delegates
// the export data decoding to the standard library's gc importer via its
// lookup hook.
func newExportImporter(fset *token.FileSet, exports, importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if resolved, ok := importMap[path]; ok {
			path = resolved
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}
