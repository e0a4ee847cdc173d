package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// fmtPrinters are the fmt functions that write to stdout implicitly.
var fmtPrinters = map[string]bool{"Print": true, "Printf": true, "Println": true}

// printless keeps library packages quiet.
//
// Only the reporting layer (internal/report), the HTTP layer
// (internal/server), and the command binaries own process output; a
// library package that writes to stdout or the global logger corrupts
// experiment artifacts (results files are diffed against the paper's
// tables) and breaks embedders. The analyzer flags fmt.Print/Printf/
// Println, any use of os.Stdout, package-level log functions, and the
// print/println builtins — everywhere except main packages and packages
// whose final path element is "report" or "server". Writes to explicit
// io.Writers (fmt.Fprintf) and methods on injected *log.Logger values
// remain free.
func printless(pass *Pass) error {
	if ownsOutput(pass.Pkg) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch obj := pass.TypesInfo.Uses[id].(type) {
			case *types.Func:
				if obj.Pkg() == nil {
					return true
				}
				sig, ok := obj.Type().(*types.Signature)
				if !ok || sig.Recv() != nil {
					return true
				}
				switch {
				case obj.Pkg().Path() == "fmt" && fmtPrinters[obj.Name()]:
					pass.Reportf(id.Pos(), "fmt.%s writes to stdout from a library package; return data or take an io.Writer", obj.Name())
				case obj.Pkg().Path() == "log" && obj.Name() != "New":
					pass.Reportf(id.Pos(), "global log.%s from a library package; inject a *log.Logger", obj.Name())
				}
			case *types.Var:
				if obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "Stdout" {
					pass.Reportf(id.Pos(), "os.Stdout referenced from a library package; take an io.Writer")
				}
			case *types.Builtin:
				if obj.Name() == "print" || obj.Name() == "println" {
					pass.Reportf(id.Pos(), "builtin %s from a library package", obj.Name())
				}
			}
			return true
		})
	}
	return nil
}

// ownsOutput reports whether pkg owns process output by convention.
func ownsOutput(pkg *types.Package) bool {
	if pkg.Name() == "main" {
		return true
	}
	path := pkg.Path()
	last := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		last = path[i+1:]
	}
	return last == "report" || last == "server"
}
