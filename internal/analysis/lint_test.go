package analysis_test

import (
	"cmp"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicmix"
	"repro/internal/analysis/errflow"
	"repro/internal/analysis/floatcmp"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/panicdoc"
	"repro/internal/analysis/pkgdoc"
	"repro/internal/analysis/printless"
)

// suite is the repository's analyzer suite, one analyzer per invariant the
// bouquet guarantees rest on, in name order. It lives here, in an external
// test package, because only this package may import both the framework
// and the analyzers built on it.
var suite = []*analysis.Analyzer{
	atomicmix.Analyzer,
	errflow.Analyzer,
	floatcmp.Analyzer,
	maporder.Analyzer,
	panicdoc.Analyzer,
	pkgdoc.Analyzer,
	printless.Analyzer,
}

// lint loads every package under dir and runs the suite over each. It
// returns one "path:line:col: message [analyzer]" line per finding, path
// relative to dir, sorted by position.
func lint(t *testing.T, dir string) []string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not available")
	}
	pkgs, err := analysis.Load(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var all []analysis.Diagnostic
	for _, p := range pkgs {
		diags, err := analysis.RunPackage(suite, p.Fset, p.Files, p.Pkg, p.Info)
		if err != nil {
			t.Fatalf("%s: %v", p.PkgPath, err)
		}
		all = append(all, diags...)
	}
	slices.SortFunc(all, func(a, b analysis.Diagnostic) int {
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
	_, file, _, _ := runtime.Caller(0)
	for _, line := range lint(t, filepath.Join(filepath.Dir(file), "..", "..")) {
		t.Error(line)
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

// TestSuiteShape pins the suite's contract: every analyzer is fully
// populated, and names are unique lowercase identifiers in name order, so
// //bouquet:allow directives can name them and findings sort stably.
func TestSuiteShape(t *testing.T) {
	if len(suite) != 7 {
		t.Fatalf("suite has %d analyzers, want 7 (update this count and the docs together)", len(suite))
	}
	name := regexp.MustCompile(`^[a-z]+$`)
	for i, az := range suite {
		if !name.MatchString(az.Name) || az.Doc == "" || az.Run == nil {
			t.Errorf("analyzer %d (%q) needs a lowercase name, a Doc and a Run", i, az.Name)
		}
		if i > 0 && suite[i-1].Name >= az.Name {
			t.Errorf("suite not in strict name order at %s, %s", suite[i-1].Name, az.Name)
		}
	}
}
