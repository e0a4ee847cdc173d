package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/callgraph"
)

// Infra caches the shared per-package infrastructure analyzers would
// otherwise rebuild from the same inputs: the non-test file subset and
// the function graph over it (package callgraph). One Infra is shared by every Pass in a
// RunPackage call, so the first analyzer to ask pays the construction
// cost once and the rest hit the cache — and -timing can prime it up
// front to attribute that cost to "infra" rather than to whichever
// analyzer happens to run first.
//
// Infra is not safe for concurrent use; drivers run analyzers
// sequentially per package.
type Infra struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info

	nonTest      []*ast.File
	nonTestBuilt bool
	graph        *callgraph.Graph
}

// NewInfra returns an empty cache over one type-checked package.
func NewInfra(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Infra {
	return &Infra{fset: fset, files: files, pkg: pkg, info: info}
}

// NonTestFiles returns the package's non-test files. The bouquetvet
// analyzers enforce production invariants on production code; keeping
// test files out of the function graph means test helpers can't create
// phantom interprocedural facts.
func (in *Infra) NonTestFiles() []*ast.File {
	if !in.nonTestBuilt {
		in.nonTestBuilt = true
		for _, f := range in.files {
			name := in.fset.Position(f.Pos()).Filename
			if !strings.HasSuffix(name, "_test.go") {
				in.nonTest = append(in.nonTest, f)
			}
		}
	}
	return in.nonTest
}

// CallGraph returns the package's function graph over its non-test
// files, building it on first use.
func (in *Infra) CallGraph() *callgraph.Graph {
	if in.graph == nil {
		in.graph = callgraph.New(in.NonTestFiles(), in.info)
	}
	return in.graph
}

// Prime eagerly builds everything the cache can hold: the function graph.
// Used by -timing to measure shared infrastructure cost on its own row.
func (in *Infra) Prime() { in.CallGraph() }

// NonTestFiles returns the package's non-test files via the pass's
// shared cache.
func (p *Pass) NonTestFiles() []*ast.File { return p.infra().NonTestFiles() }

// CallGraph returns the package's function graph (non-test files) via
// the pass's shared cache.
func (p *Pass) CallGraph() *callgraph.Graph { return p.infra().CallGraph() }

// infra returns the pass's cache, creating a private one for passes
// constructed without RunPackage (tests, single-analyzer drivers).
func (p *Pass) infra() *Infra {
	if p.shared == nil {
		p.shared = NewInfra(p.Fset, p.Files, p.Pkg, p.TypesInfo)
	}
	return p.shared
}
