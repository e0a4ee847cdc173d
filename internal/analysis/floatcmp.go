package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floatcmp forbids exact equality comparison of floating-point
// values.
//
// Plan costs and selectivities are float64 chains of sums and products;
// two semantically equal values routinely differ by accumulated rounding
// error, so `==`/`!=` silently breaks deterministic tie-breaking (and with
// it the reproducibility of the bouquet's plan choices). Equality must go
// through internal/floats (Eq, EqWithin, Less) or carry an explicit
// //bouquet:allow floatcmp directive stating why an exact compare is
// intended.
func floatcmp(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if isFloat(pass, be.X) || isFloat(pass, be.Y) {
				pass.Reportf(be.OpPos, "exact %s on float operands; use floats.Eq/EqWithin (or //bouquet:allow floatcmp with a reason)", be.Op)
			}
			return true
		})
	}
	return nil
}

// isFloat reports whether e's type is a floating-point basic type.
func isFloat(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
