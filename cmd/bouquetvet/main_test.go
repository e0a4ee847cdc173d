package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// repoRoot locates the module root from this file's position.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate caller")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// buildVet compiles the bouquetvet binary into a temp dir and returns its
// path.
func buildVet(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not available")
	}
	bin := filepath.Join(t.TempDir(), "bouquetvet")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/bouquetvet")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestDirectModeRepoIsClean is the acceptance smoke test: the shipped
// suite produces zero findings over the repository itself.
func TestDirectModeRepoIsClean(t *testing.T) {
	bin := buildVet(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = repoRoot(t)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("bouquetvet ./... failed: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("bouquetvet ./... produced findings:\n%s", stdout.String())
	}
}

// TestVettoolCleanRepo drives bouquetvet through the real `go vet
// -vettool` unitchecker protocol over repository packages and expects a
// clean exit.
func TestVettoolCleanRepo(t *testing.T) {
	bin := buildVet(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./internal/floats", "./internal/ess", "./internal/core")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool: %v\n%s", err, out)
	}
}

// TestVettoolReportsFindings verifies the protocol end to end in the
// failing direction: a scratch module with a floatcmp violation must make
// `go vet -vettool` exit non-zero and print the diagnostic.
func TestVettoolReportsFindings(t *testing.T) {
	bin := buildVet(t)
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module vetfixture\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "a.go"), `package a

func equal(x, y float64) bool {
	return x == y
}

func suppressed(x float64) bool {
	return x == 0 //bouquet:allow floatcmp: sentinel
}
`)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool exited 0 on a package with a floatcmp violation\n%s", out)
	}
	if !strings.Contains(string(out), "exact == on float operands") {
		t.Fatalf("go vet -vettool output missing the floatcmp diagnostic:\n%s", out)
	}
	if strings.Count(string(out), "exact == on float operands") != 1 {
		t.Fatalf("expected exactly one finding (the second compare is suppressed):\n%s", out)
	}
}

// TestOutputSortedAndStable pins the cross-analyzer reporting contract:
// findings from different analyzers arrive interleaved in file-position
// order, and two runs over the same input produce byte-identical output.
func TestOutputSortedAndStable(t *testing.T) {
	bin := buildVet(t)
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module vetfixture\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "a.go"), `package a

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

func report() int64 { return hits }

func drop() {
	_ = mayFail()
}
`)
	run := func() string {
		cmd := exec.Command(bin, "./...")
		cmd.Dir = dir
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		if err := cmd.Run(); err == nil {
			t.Fatalf("bouquetvet exited 0 on a fixture with known findings\n%s", stdout.String())
		}
		return stdout.String()
	}
	first := run()
	if second := run(); second != first {
		t.Fatalf("output differs across runs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}

	lines := strings.Split(strings.TrimSpace(first), "\n")
	if len(lines) < 4 {
		t.Fatalf("expected findings from several analyzers, got %d line(s):\n%s", len(lines), first)
	}
	analyzers := map[string]bool{}
	prevLine, prevCol := 0, 0
	for _, line := range lines {
		// path:line:col: message [analyzer]
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 {
			t.Fatalf("malformed diagnostic line %q", line)
		}
		ln, err := strconv.Atoi(parts[1])
		if err != nil {
			t.Fatalf("bad line number in %q: %v", line, err)
		}
		col, err := strconv.Atoi(parts[2])
		if err != nil {
			t.Fatalf("bad column in %q: %v", line, err)
		}
		if ln < prevLine || (ln == prevLine && col < prevCol) {
			t.Fatalf("diagnostics not sorted by position: %q after %d:%d\nfull output:\n%s", line, prevLine, prevCol, first)
		}
		prevLine, prevCol = ln, col
		open := strings.LastIndex(line, "[")
		if open < 0 || !strings.HasSuffix(line, "]") {
			t.Fatalf("diagnostic line missing [analyzer] suffix: %q", line)
		}
		analyzers[line[open+1:len(line)-1]] = true
	}
	for _, want := range []string{"atomicmix", "errflow", "floatcmp", "maporder"} {
		if !analyzers[want] {
			t.Errorf("no %s finding in output (analyzers seen: %v):\n%s", want, analyzers, first)
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
