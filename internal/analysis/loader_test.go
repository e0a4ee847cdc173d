package analysis

import (
	"go/token"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// repoRoot walks up from this file to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

func requireGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not available")
	}
}

func TestLoadTypeChecksPackages(t *testing.T) {
	requireGo(t)
	pkgs, err := Load(repoRoot(t), []string{"repro/internal/floats", "repro/internal/ess"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	for _, p := range pkgs {
		if len(p.Files) == 0 {
			t.Errorf("%s: no files", p.PkgPath)
		}
		if p.Pkg == nil || !p.Pkg.Complete() {
			t.Errorf("%s: incomplete type info", p.PkgPath)
		}
	}
}

func TestLoadResolvesStdlibImports(t *testing.T) {
	requireGo(t)
	// internal/server imports net/http, encoding/json, sync — a good
	// stress of export-data resolution.
	pkgs, err := Load(repoRoot(t), []string{"repro/internal/server"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
}

func TestAllowIndexSuppression(t *testing.T) {
	ai := allowIndex{
		{"floatcmp", "f.go", 10}: true,
	}
	if !ai.covers("floatcmp", token.Position{Filename: "f.go", Line: 10}) {
		t.Error("same-line directive should suppress")
	}
	if !ai.covers("floatcmp", token.Position{Filename: "f.go", Line: 11}) {
		t.Error("directive on preceding line should suppress")
	}
	if ai.covers("floatcmp", token.Position{Filename: "f.go", Line: 12}) {
		t.Error("directive two lines up must not suppress")
	}
	if ai.covers("maporder", token.Position{Filename: "f.go", Line: 10}) {
		t.Error("directive names a different analyzer")
	}
}
