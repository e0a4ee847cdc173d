// Package analysis is a dependency-free miniature of
// golang.org/x/tools/go/analysis: just enough framework to host the
// repository's domain-invariant analyzers without pulling a module
// dependency the build environment cannot fetch.
//
// It deliberately mirrors the upstream API shape — Analyzer, Pass,
// Diagnostic, Reportf — so the analyzers read like standard go/analysis
// code. The analyzers are this package's own files, one per invariant,
// each a named function listed once in suite. There is one driver:
// Load resolves packages via `go list -export` and type-checks them from
// source, and RunPackage runs analyzers over each. This package's
// TestRepoIsClean runs the whole suite over the repository that way, as
// part of `go test ./...`, and fails with one
// "path:line:col: message [analyzer]" line per finding; the fixtures
// under testdata/<analyzer>/<case>/ go through the same two calls, and
// their `// want` comments are checked one to one.
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
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //bouquet:allow directives. It must be a valid identifier.
	Name string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// suite is the repository's analyzer suite, one analyzer per invariant the
// bouquet guarantees rest on, in name order. Each analyzer's file says
// what it checks and why.
var suite = []*Analyzer{
	{Name: "atomicmix", Run: atomicmix},
	{Name: "errflow", Run: errflow},
	{Name: "floatcmp", Run: floatcmp},
	{Name: "maporder", Run: maporder},
	{Name: "panicdoc", Run: panicdoc},
	{Name: "pkgdoc", Run: pkgdoc},
	{Name: "printless", Run: printless},
}

// A Pass provides one analyzer with the material for one package and
// collects its diagnostics.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files is the package's parsed syntax (comments included). The
	// loader reads only a package's GoFiles, so no _test.go file is
	// among them.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's findings for Files.
	TypesInfo *types.Info

	diags *[]Diagnostic
	allow allowIndex
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

// RunPackage applies each analyzer to one type-checked package and returns
// the surviving (non-suppressed) diagnostics, malformed directives
// included, in no particular order.
func RunPackage(analyzers []*Analyzer, p *LoadedPackage) ([]Diagnostic, error) {
	allow, diags := buildAllowIndex(p.Fset, p.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      p.Fset,
			Files:     p.Files,
			Pkg:       p.Pkg,
			TypesInfo: p.Info,
			diags:     &diags,
			allow:     allow,
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	return diags, nil
}
