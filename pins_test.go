package repro_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestPinnedByNamesExist keeps "pinned by TestX" comments honest: a
// non-test file that cites its pin that way must have a func TestX in a
// _test.go file of the same directory, so a pin cannot be renamed or
// deleted while the comment goes on naming it.
func TestPinnedByNamesExist(t *testing.T) {
	pin := regexp.MustCompile(`pinned (?:dynamically )?by[\s/]+(Test\w+)`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		tests, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*_test.go"))
	pins:
		for _, m := range pin.FindAllSubmatch(src, -1) {
			for _, tf := range tests {
				if b, _ := os.ReadFile(tf); bytes.Contains(b, []byte("func "+string(m[1])+"(")) {
					continue pins
				}
			}
			t.Errorf("%s cites %s, which no _test.go file beside it defines", path, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
