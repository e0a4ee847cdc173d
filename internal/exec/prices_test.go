package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cost"
)

// TestChargesPricedByCost holds the engines to one price list: every
// charge is a price internal/cost computes (cost.Rates), so no non-test
// file of this package may read a cost.Params field, the catalog's
// PageSize or an index's Clustered flag, or call math.Log2 — the inputs a
// price is derived from.
func TestChargesPricedByCost(t *testing.T) {
	banned := map[string]bool{"PageSize": true, "Clustered": true}
	params := reflect.TypeOf(cost.Params{})
	for i := 0; i < params.NumField(); i++ {
		banned[params.Field(i).Name] = true
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files++
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "math" && sel.Sel.Name == "Log2" {
					t.Errorf("%s: math.Log2 prices an event; take the price from cost.Rates", fset.Position(sel.Pos()))
				}
				if banned[sel.Sel.Name] {
					t.Errorf("%s: .%s is a pricing input; take the price from cost.Rates", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
	if files == 0 {
		t.Fatal("parsed no non-test files")
	}
}
