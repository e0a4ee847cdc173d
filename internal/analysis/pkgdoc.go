package analysis

import "strings"

// pkgdoc keeps package documentation real.
//
// Every library package is someone's entry point into the codebase, and
// `go doc <pkg>` is the first thing they run — a missing or one-line
// package comment makes that output useless and the architecture docs
// the only (staleness-prone) source of truth. The analyzer requires
// each non-main package to carry a package comment that follows the
// godoc convention ("Package <name> ...") and says something
// substantive: at least minDocLen characters once the comment markers
// are stripped. Command binaries (package main) document themselves
// through their usage text instead.
func pkgdoc(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	var docs []string
	for _, f := range pass.Files {
		if f.Doc != nil {
			docs = append(docs, f.Doc.Text())
		}
	}
	at := pass.Files[0].Name.Pos()
	if len(docs) == 0 {
		pass.Reportf(at, "package %s has no package comment; add a doc.go describing what the package owns", pass.Pkg.Name())
		return nil
	}
	doc := strings.TrimSpace(strings.Join(docs, "\n"))
	if !strings.HasPrefix(doc, "Package "+pass.Pkg.Name()+" ") {
		pass.Reportf(at, "package comment for %s must start %q (godoc convention)", pass.Pkg.Name(), "Package "+pass.Pkg.Name())
		return nil
	}
	if len(doc) < minDocLen {
		pass.Reportf(at, "package comment for %s is a stub (%d chars, need %d); say what the package owns and how it is used",
			pass.Pkg.Name(), len(doc), minDocLen)
	}
	return nil
}

// minDocLen is the minimum substantive package-comment length in
// characters. One honest sentence about what the package owns clears
// it; a placeholder ("Package x implements x.") does not.
const minDocLen = 60
