// Package analysis is a dependency-free miniature of
// golang.org/x/tools/go/analysis: just enough framework to host the
// repository's domain-invariant analyzers without pulling a module
// dependency the build environment cannot fetch.
//
// It deliberately mirrors the upstream API shape — Analyzer, Pass,
// Diagnostic, Reportf — so the analyzers themselves read like standard
// go/analysis code and could be ported to the real framework by changing
// one import path. Two drivers run analyzers built on it:
//
//   - Load + RunPackage, which load packages via `go list -export`,
//     type-check them from source and run the suite over each. This
//     package's TestRepoIsClean runs the whole suite over the repository
//     this way, as part of `go test ./...`, and fails with one
//     "path:line:col: message [analyzer]" line per finding;
//   - analysistest (internal/analysis/analysistest), which runs one
//     analyzer over a fixture package and checks `// want` comments.
//
// # Suppression directives
//
// A finding can be acknowledged in place with a directive comment
//
//	//bouquet:allow <name>[,<name>...]: <reason>
//
// placed on the same line as the flagged expression or on the line
// immediately above it. Suppressions are deliberate, reviewable markers:
// the invariant still holds, the directive records why this site is an
// exception. The reason is mandatory — a directive without ": <reason>"
// suppresses nothing and is itself reported (analyzer name
// "allowformat"), so an unexplained exception cannot slip through
// review.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //bouquet:allow directives. It must be a valid identifier.
	Name string
	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then details.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with the material for one package and
// collects its diagnostics.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files is the package's parsed syntax (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's findings for Files.
	TypesInfo *types.Info

	diags   *[]Diagnostic
	allow   allowIndex
	nonTest []*ast.File
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Message describes the finding.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos unless a //bouquet:allow directive for
// this analyzer covers the position's line (or the line above it).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow.covers(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// NonTestFiles returns the package's non-test files.
func (p *Pass) NonTestFiles() []*ast.File { return p.nonTest }

// InTestFile reports whether pos lies in a _test.go file. The
// analyzers enforce production invariants on production files; test files
// are exercised by the test suite itself.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// allowKey identifies one suppressed (analyzer, file, line) triple.
type allowKey struct {
	analyzer string
	file     string
	line     int
}

// allowIndex records which lines carry //bouquet:allow directives.
type allowIndex map[allowKey]bool

// covers reports whether the directive index suppresses analyzer findings
// at position: a directive on the same line (trailing comment) or on the
// line immediately above (leading comment) counts.
func (ai allowIndex) covers(analyzer string, pos token.Position) bool {
	return ai[allowKey{analyzer, pos.Filename, pos.Line}] ||
		ai[allowKey{analyzer, pos.Filename, pos.Line - 1}]
}

const allowPrefix = "//bouquet:allow"

// AllowFormatName is the analyzer name under which malformed
// //bouquet:allow directives are reported. It is a framework check, not
// a registry analyzer: the suppression parser itself enforces that every
// directive names its analyzers and states a reason.
const AllowFormatName = "allowformat"

// buildAllowIndex scans every comment in files for suppression
// directives. Well-formed directives — //bouquet:allow <name>[,...]:
// <reason> with a non-empty reason — populate the index; malformed ones
// suppress nothing and come back as diagnostics.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) (allowIndex, []Diagnostic) {
	ai := allowIndex{}
	var malformed []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		malformed = append(malformed, Diagnostic{
			Pos:      pos,
			Analyzer: AllowFormatName,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				names, reason, found := strings.Cut(rest, ":")
				if !found {
					report(pos, "//bouquet:allow directive is missing its reason; write //bouquet:allow <analyzer>: <reason>")
					continue
				}
				if strings.TrimSpace(reason) == "" {
					report(pos, "//bouquet:allow directive has an empty reason; state why this site is an exception")
					continue
				}
				any := false
				for _, name := range strings.Split(names, ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					any = true
					ai[allowKey{name, pos.Filename, pos.Line}] = true
				}
				if !any {
					report(pos, "//bouquet:allow directive names no analyzer; write //bouquet:allow <analyzer>: <reason>")
				}
			}
		}
	}
	return ai, malformed
}

// NewTypesInfo returns a types.Info with every map the analyzers consult
// allocated.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// RunPackage applies each analyzer to one type-checked package and returns
// the surviving (non-suppressed) diagnostics sorted by position.
func RunPackage(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	allow, diags := buildAllowIndex(fset, files)
	var nonTest []*ast.File
	for _, f := range files {
		if !strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			nonTest = append(nonTest, f)
		}
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			diags:     &diags,
			allow:     allow,
			nonTest:   nonTest,
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
