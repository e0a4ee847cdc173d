package analysis

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// lint loads every package under dir and runs the suite over each. It
// returns one "path:line:col: message [analyzer]" line per finding, path
// relative to dir, sorted by position.
func lint(t *testing.T, dir string) []string {
	t.Helper()
	requireGo(t)
	pkgs, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var all []Diagnostic
	for _, p := range pkgs {
		diags, err := RunPackage(suite, p)
		if err != nil {
			t.Fatalf("%s: %v", p.PkgPath, err)
		}
		all = append(all, diags...)
	}
	slices.SortFunc(all, func(a, b Diagnostic) int {
		return cmp.Or(cmp.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column), cmp.Compare(a.Analyzer, b.Analyzer))
	})
	lines := make([]string, len(all))
	for i, d := range all {
		if rel, err := filepath.Rel(dir, d.Pos.Filename); err == nil {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		lines[i] = d.String()
	}
	return lines
}

// TestRepoIsClean is the repository's lint gate: the suite reports nothing
// over every package of the module. A finding fails the test with its own
// "path:line:col: message [analyzer]" line, which the CI problem matcher
// turns into an annotation on that file.
func TestRepoIsClean(t *testing.T) {
	for _, line := range lint(t, repoRoot(t)) {
		t.Error(line)
	}
}

// fixtures lists every fixture package under testdata/ as
// <analyzer>/<case>. A fixture is checked against the analyzer it is
// filed under: every line that should produce a finding carries a
// trailing comment of the form
//
//	x == y // want `regexp` ...
//
// with one quoted or backquoted regular expression per expected finding
// on that line, and a case with no want comment must lint clean.
var fixtures = []string{
	"atomicmix/a",
	"errflow/a",
	"floatcmp/a",
	"maporder/a",
	"panicdoc/a",
	"pkgdoc/a",
	// A substantive doc.go comment, split across a dedicated file while
	// the code files carry none, passes clean.
	"pkgdoc/good",
	"pkgdoc/stub",
	"pkgdoc/wrongprefix",
	"printless/a",
	// The path-based exemption: the fixture's import path ends in
	// "report", so even direct fmt.Println calls produce no findings.
	"printless/report",
}

// TestFixtures loads every fixture in one Load, the way TestRepoIsClean
// loads the repository, runs each through RunPackage with its own
// analyzer, and pairs the findings with the fixture's want comments one
// to one: a finding with no matching want, or a want with no matching
// finding, fails the test.
func TestFixtures(t *testing.T) {
	requireGo(t)
	patterns := make([]string, len(fixtures))
	for i, f := range fixtures {
		patterns[i] = "./testdata/" + f
	}
	pkgs, err := Load(".", patterns)
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*LoadedPackage{}
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	covered := map[string]bool{}
	for _, f := range fixtures {
		t.Run(f, func(t *testing.T) {
			name, _, _ := strings.Cut(f, "/")
			i := slices.IndexFunc(suite, func(a *Analyzer) bool { return a.Name == name })
			if i < 0 {
				t.Fatalf("no analyzer %q in the suite", name)
			}
			covered[name] = true
			p := byPath["repro/internal/analysis/testdata/"+f]
			if p == nil {
				t.Fatalf("fixture not loaded")
			}
			diags, err := RunPackage(suite[i:i+1], p)
			if err != nil {
				t.Fatal(err)
			}
			matchWants(t, diags, collectWants(t, p))
		})
	}
	for _, a := range suite {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no fixture", a.Name)
		}
	}
}

// want is one expected finding.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantRE splits a want comment into quoted expectation strings.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants parses the `// want ...` comments of a fixture package.
func collectWants(t *testing.T, p *LoadedPackage) []*want {
	t.Helper()
	var wants []*want
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				specs := wantRE.FindAllString(text, -1)
				if len(specs) == 0 {
					t.Errorf("%s: malformed want comment %q", pos, c.Text)
					continue
				}
				for _, spec := range specs {
					pattern := spec[1 : len(spec)-1]
					if spec[0] == '"' {
						unquoted, err := strconv.Unquote(spec)
						if err != nil {
							t.Errorf("%s: bad want string %q: %v", pos, spec, err)
							continue
						}
						pattern = unquoted
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", pos, pattern, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// matchWants pairs findings with expectations one to one.
func matchWants(t *testing.T, diags []Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		i := slices.IndexFunc(wants, func(w *want) bool {
			return !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message)
		})
		if i < 0 {
			t.Errorf("unexpected finding: %s", d)
			continue
		}
		wants[i].matched = true
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// fixtureModule writes src as the one file of a scratch module and returns
// the module's directory.
func fixtureModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range map[string]string{
		"go.mod": "module lintfixture\n\ngo 1.22\n",
		"a.go":   src,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestSuiteReportsFindings runs the suite the way TestRepoIsClean does, in
// the failing direction: of two float compares, the one without a
// //bouquet:allow directive is reported, and only that one.
func TestSuiteReportsFindings(t *testing.T) {
	got := lint(t, fixtureModule(t, `// Package a holds two float compares, one of them acknowledged by a directive.
package a

func equal(x, y float64) bool {
	return x == y
}

func suppressed(x float64) bool {
	return x == 0 //bouquet:allow floatcmp: sentinel
}
`))
	if len(got) != 1 || !strings.HasPrefix(got[0], "a.go:5:11: exact == on float operands") || !strings.HasSuffix(got[0], " [floatcmp]") {
		t.Fatalf("want exactly one floatcmp finding, at a.go:5:11, got:\n%s", strings.Join(got, "\n"))
	}
}

// TestTestFilesAreNotLinted pins what lets the analyzers ignore test files:
// the loader never hands them one. A float == and a blank-discarded error,
// in an in-package and in an external test file, give no finding; nor
// does the external test package, which has no package comment.
func TestTestFilesAreNotLinted(t *testing.T) {
	dir := fixtureModule(t, `// Package a has test files that break the suite's rules, and no finding.
package a

// Half halves x.
func Half(x float64) float64 { return x / 2 }
`)
	for name, src := range map[string]string{
		"a_test.go": `package a

import (
	"errors"
	"testing"
)

func fail() error { return errors.New("boom") }

func TestHalf(t *testing.T) {
	_ = fail()
	if Half(1) == 0.5 {
		return
	}
}
`,
		"ax_test.go": `package a_test

import (
	"errors"
	"testing"

	"lintfixture"
)

func TestHalfOutside(t *testing.T) {
	_ = errors.New("boom")
	if lintfixture.Half(1) != 0.5 {
		t.Fail()
	}
}
`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := lint(t, dir); len(got) != 0 {
		t.Fatalf("want no finding from test files, got:\n%s", strings.Join(got, "\n"))
	}
}

// wantFinding lints src as the one file of a scratch module and requires
// a finding from analyzer whose message contains msg.
func wantFinding(t *testing.T, src, analyzer, msg string) {
	t.Helper()
	got := lint(t, fixtureModule(t, src))
	for _, l := range got {
		if strings.HasSuffix(l, " ["+analyzer+"]") && strings.Contains(l, msg) {
			return
		}
	}
	t.Fatalf("no %s finding containing %q in:\n%s", analyzer, msg, strings.Join(got, "\n"))
}

// TestAtomicmixReported: a counter bumped with a package-level sync/atomic
// function is reported at the call.
func TestAtomicmixReported(t *testing.T) {
	wantFinding(t, `package a

import "sync/atomic"

var hits int64

func bump() { atomic.AddInt64(&hits, 1) }
`, "atomicmix", "a.go:7:22: atomic.AddInt64 works on plain memory")
}

// TestMaporderReported: map iteration appended to an output slice with no
// later sort is reported.
func TestMaporderReported(t *testing.T) {
	wantFinding(t, `package a

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`, "maporder", "map iteration order reaches ordered output")
}

// TestFindingsSortedAndStable pins the reporting contract across
// analyzers: findings arrive interleaved in file-position order, each as
// "path:line:col: message [analyzer]", and two runs over the same input
// give the same lines.
func TestFindingsSortedAndStable(t *testing.T) {
	dir := fixtureModule(t, `package a

import (
	"errors"
	"sync/atomic"
)

var hits int64

func bump() { atomic.AddInt64(&hits, 1) }

func mayFail() error { return errors.New("boom") }

func eq(x, y float64) bool { return x == y }

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func drop() {
	_ = mayFail()
}
`)
	first := lint(t, dir)
	if second := lint(t, dir); !slices.Equal(first, second) {
		t.Fatalf("findings differ across runs:\n--- first ---\n%s\n--- second ---\n%s", strings.Join(first, "\n"), strings.Join(second, "\n"))
	}
	line := regexp.MustCompile(`^a\.go:(\d+):(\d+): (.+) \[([a-z]+)\]$`)
	var prev [2]int
	seen := map[string]string{}
	for _, l := range first {
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("malformed finding %q", l)
		}
		var pos [2]int
		fmt.Sscan(m[1], &pos[0])
		fmt.Sscan(m[2], &pos[1])
		if slices.Compare(pos[:], prev[:]) < 0 {
			t.Fatalf("findings not sorted by position: %q after %d:%d", l, prev[0], prev[1])
		}
		prev = pos
		seen[m[4]] = m[3]
	}
	for analyzer, msg := range map[string]string{
		"atomicmix": "atomic.AddInt64 works on plain memory",
		"errflow":   "",
		"floatcmp":  "exact == on float operands",
		"maporder":  "map iteration order reaches ordered output",
	} {
		if got, ok := seen[analyzer]; !ok || !strings.Contains(got, msg) {
			t.Errorf("no %s finding containing %q in:\n%s", analyzer, msg, strings.Join(first, "\n"))
		}
	}
}

// TestSuiteShape pins the suite's contract: every analyzer has a name and
// a Run, and names are unique lowercase identifiers in name order, so
// //bouquet:allow directives can name them and findings sort stably.
func TestSuiteShape(t *testing.T) {
	if len(suite) != 7 {
		t.Fatalf("suite has %d analyzers, want 7 (update this count and the docs together)", len(suite))
	}
	name := regexp.MustCompile(`^[a-z]+$`)
	for i, az := range suite {
		if !name.MatchString(az.Name) || az.Run == nil {
			t.Errorf("analyzer %d (%q) needs a lowercase name and a Run", i, az.Name)
		}
		if i > 0 && suite[i-1].Name >= az.Name {
			t.Errorf("suite not in strict name order at %s, %s", suite[i-1].Name, az.Name)
		}
	}
}
