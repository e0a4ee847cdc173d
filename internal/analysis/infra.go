package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/callgraph"
)

// infra caches the shared per-package infrastructure analyzers would
// otherwise rebuild from the same inputs: the non-test file subset and
// the function graph over it (package callgraph). One infra is shared by
// every Pass in a RunPackage call, so the first analyzer to ask for the
// graph pays its construction once and the rest hit the cache.
//
// infra is not safe for concurrent use; RunPackage runs analyzers
// sequentially.
type infra struct {
	nonTest []*ast.File
	info    *types.Info
	graph   *callgraph.Graph
}

// newInfra returns the cache for one package: its non-test files now, the
// graph on first use. The analyzers enforce production invariants on
// production code; keeping test files out of the function graph means test
// helpers can't create phantom interprocedural facts.
func newInfra(fset *token.FileSet, files []*ast.File, info *types.Info) *infra {
	in := &infra{info: info}
	for _, f := range files {
		if !strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			in.nonTest = append(in.nonTest, f)
		}
	}
	return in
}

// NonTestFiles returns the package's non-test files.
func (p *Pass) NonTestFiles() []*ast.File { return p.shared.nonTest }

// CallGraph returns the package's function graph over its non-test
// files, building it on first use.
func (p *Pass) CallGraph() *callgraph.Graph {
	if p.shared.graph == nil {
		p.shared.graph = callgraph.New(p.shared.nonTest, p.shared.info)
	}
	return p.shared.graph
}
