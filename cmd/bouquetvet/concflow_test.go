package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// dualMode runs one scratch-module fixture through both entry modes —
// the direct driver and the `go vet -vettool` unitchecker protocol —
// and requires the wanted diagnostic (and a non-zero exit) from each.
func dualMode(t *testing.T, src, want string) {
	t.Helper()
	bin := buildVet(t)
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module vetfixture\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "a.go"), src)

	direct := exec.Command(bin, "./...")
	direct.Dir = dir
	out, err := direct.CombinedOutput()
	if err == nil {
		t.Fatalf("direct mode exited 0 on the fixture\n%s", out)
	}
	if !strings.Contains(string(out), want) {
		t.Fatalf("direct mode output missing %q:\n%s", want, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = dir
	out, err = vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool exited 0 on the fixture\n%s", out)
	}
	if !strings.Contains(string(out), want) {
		t.Fatalf("vettool output missing %q:\n%s", want, out)
	}
}

// TestAtomicmixDualMode: a counter bumped with sync/atomic in one
// function and read plainly in another must be reported in both modes.
func TestAtomicmixDualMode(t *testing.T) {
	dualMode(t, `package a

import "sync/atomic"

var hits int64

func bump() { atomic.AddInt64(&hits, 1) }

func report() int64 { return hits }
`, "hits is accessed with sync/atomic elsewhere in this package")
}

// TestMaporderDualMode: map iteration appended to an output slice with
// no later sort must be reported in both modes.
func TestMaporderDualMode(t *testing.T) {
	dualMode(t, `package a

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`, "map iteration order reaches ordered output")
}
