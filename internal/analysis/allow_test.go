package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseForAllow parses src and returns the allow index plus any
// allowformat diagnostics the parser produced.
func parseForAllow(t *testing.T, src string) (allowIndex, []Diagnostic, *token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ai, diags := buildAllowIndex(fset, []*ast.File{f})
	return ai, diags, fset, f
}

func TestAllowDirectiveWellFormed(t *testing.T) {
	ai, diags, _, _ := parseForAllow(t, `package p

func f() int {
	return 1 //bouquet:allow floatcmp: sentinel compare, exactness intended
}
`)
	if len(diags) != 0 {
		t.Fatalf("well-formed directive produced diagnostics: %v", diags)
	}
	if !ai.covers("floatcmp", token.Position{Filename: "f.go", Line: 4}) {
		t.Error("well-formed colon directive should suppress on its line")
	}
}

func TestAllowDirectiveMultipleAnalyzers(t *testing.T) {
	ai, diags, _, _ := parseForAllow(t, `package p

func f() {
	//bouquet:allow errflow, floatcmp: probe path, both findings acknowledged
	_ = 1
}
`)
	if len(diags) != 0 {
		t.Fatalf("multi-analyzer directive produced diagnostics: %v", diags)
	}
	for _, name := range []string{"errflow", "floatcmp"} {
		if !ai.covers(name, token.Position{Filename: "f.go", Line: 5}) {
			t.Errorf("%s not suppressed by comma list", name)
		}
	}
}

func TestAllowDirectiveMissingReasonIsReportedAndSuppressesNothing(t *testing.T) {
	ai, diags, _, _ := parseForAllow(t, `package p

func f() int {
	return 1 //bouquet:allow floatcmp
}
`)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if diags[0].Analyzer != AllowFormatName {
		t.Errorf("diagnostic analyzer = %q, want %q", diags[0].Analyzer, AllowFormatName)
	}
	if !strings.Contains(diags[0].Message, "missing its reason") {
		t.Errorf("unexpected message %q", diags[0].Message)
	}
	if ai.covers("floatcmp", token.Position{Filename: "f.go", Line: 4}) {
		t.Error("reason-less directive must not suppress")
	}
}

func TestAllowDirectiveEmptyReasonIsReported(t *testing.T) {
	ai, diags, _, _ := parseForAllow(t, `package p

func f() int {
	return 1 //bouquet:allow floatcmp:
}
`)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "empty reason") {
		t.Fatalf("got %v, want one empty-reason diagnostic", diags)
	}
	if ai.covers("floatcmp", token.Position{Filename: "f.go", Line: 4}) {
		t.Error("empty-reason directive must not suppress")
	}
}

func TestAllowDirectiveNoAnalyzerNamesIsReported(t *testing.T) {
	_, diags, _, _ := parseForAllow(t, `package p

func f() {
	//bouquet:allow : just a reason with nobody named
}
`)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "names no analyzer") {
		t.Fatalf("got %v, want one no-analyzer diagnostic", diags)
	}
}

// TestRunPackageEmitsAllowFormatDiagnostics checks the framework check is
// surfaced through the normal driver path, beside analyzer findings.
func TestRunPackageEmitsAllowFormatDiagnostics(t *testing.T) {
	src := `package p

func f() int {
	return 1 //bouquet:allow floatcmp
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunPackage(nil, &LoadedPackage{Fset: fset, Files: []*ast.File{f}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != AllowFormatName {
		t.Fatalf("RunPackage diags = %v, want one [allowformat]", diags)
	}
}
