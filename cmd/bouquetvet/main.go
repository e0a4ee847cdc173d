// Command bouquetvet runs the repository's domain-invariant analyzers
// (internal/analysis/...) over Go packages. It is the mechanical reviewer
// for the properties the bouquet guarantee rests on but the compiler
// cannot see: epsilon-aware float comparison, selectivity domains,
// context threading, seeded randomness, quiet libraries, and documented
// panics.
//
// Two modes share one binary:
//
//	bouquetvet [packages]
//
// loads the named packages (default ./...) via the go command, analyzes
// them, prints findings, and exits 1 if any are found.
//
//	go vet -vettool=$(which bouquetvet) ./...
//
// runs the same suite under the go command's vet driver: bouquetvet
// implements the vet tool protocol (-V=full version handshake, one
// JSON config file argument per package unit), so findings integrate
// with go vet's caching and output.
//
// Findings are suppressed by an explicit directive on or directly above
// the offending line; the reason is mandatory (a reason-less directive
// suppresses nothing and is itself reported as [allowformat]):
//
//	//bouquet:allow <analyzer>[,<analyzer>...]: <reason>
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/registry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bouquetvet", flag.ContinueOnError)
	versionFlag := fs.String("V", "", "print version and exit (go vet tool protocol)")
	flagsFlag := fs.Bool("flags", false, "print the tool's flags as JSON and exit (go vet tool protocol)")
	jsonFlag := fs.Bool("json", false, "emit findings as a JSON array on stdout (direct mode only)")
	sarifFlag := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0 on stdout and exit 0 (direct mode only; the lint gate is a separate run)")
	timingFlag := fs.Bool("timing", false, "print per-analyzer wall time instead of findings (direct mode only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *flagsFlag {
		// The go command probes `tool -flags` to learn which command-line
		// flags it may forward. The suite has none beyond the protocol's
		// own, so the answer is the empty list.
		fmt.Println("[]")
		return 0
	}

	if *versionFlag != "" {
		// The go command runs `tool -V=full` and hashes the reply into
		// its build cache key; the reply must follow the
		// "<name> version <...>" shape of the standard tools, and a
		// "devel" version must carry a buildID. Hashing the binary
		// itself means cached vet results are invalidated exactly when
		// the analyzer suite changes.
		progname := strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
		h := sha256.New()
		if f, err := os.Open(os.Args[0]); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
		fmt.Printf("%s version devel bouquetvet-suite buildID=%02x\n", progname, h.Sum(nil))
		return 0
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return analysis.RunUnitchecker(registry.All(), rest[0])
	}

	patterns := rest
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if *timingFlag {
		return runTiming(pkgs)
	}

	var all []analysis.Diagnostic
	for _, p := range pkgs {
		diags, err := analysis.RunPackage(registry.All(), p.Fset, p.Files, p.Pkg, p.Info)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		all = append(all, diags...)
	}
	if *sarifFlag {
		// Code-scanning mode: the artifact is the product, findings
		// surface as upload annotations. Exit 0 either way so the upload
		// step runs; the pass/fail lint gate is a separate plain run.
		if err := printSARIF(all); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	if *jsonFlag {
		printJSON(all)
	} else {
		for _, d := range all {
			fmt.Printf("%s\n", d)
		}
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "bouquetvet: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}

// diagJSON is the machine-readable finding shape emitted by -json: one
// object per diagnostic, stable field names, positions 1-based.
type diagJSON struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printJSON(diags []analysis.Diagnostic) {
	out := make([]diagJSON, 0, len(diags))
	for _, d := range diags {
		out = append(out, diagJSON{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	//bouquet:allow errflow: encoding a slice of plain structs to stdout cannot fail short of a broken pipe
	_ = enc.Encode(out)
}

// runTiming runs each analyzer separately over every loaded package and
// prints cumulative wall time per analyzer, slowest first. It is the
// data source for the lint budget: when `make lint` drifts, the table
// names the analyzer that paid for it.
//
// Shared infrastructure — the per-package function graph — is primed before
// any analyzer runs and reported on its own "(infra)" row. Without that,
// the whole construction cost lands on whichever consumer happens to run
// first and the table blames the wrong analyzer.
func runTiming(pkgs []*analysis.LoadedPackage) int {
	totals := make(map[string]time.Duration)
	const infraRow = "(infra)"
	infras := make([]*analysis.Infra, len(pkgs))
	for i, p := range pkgs {
		infras[i] = analysis.NewInfra(p.Fset, p.Files, p.Pkg, p.Info)
		start := time.Now()
		infras[i].Prime()
		totals[infraRow] += time.Since(start)
	}
	for _, az := range registry.All() {
		single := []*analysis.Analyzer{az}
		for i := range pkgs {
			start := time.Now()
			if _, err := analysis.RunPackageWithInfra(single, infras[i]); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			totals[az.Name] += time.Since(start)
		}
	}
	names := make([]string, 0, len(totals))
	var total time.Duration
	for name, d := range totals {
		names = append(names, name)
		total += d
	}
	sort.Slice(names, func(i, j int) bool {
		if totals[names[i]] != totals[names[j]] {
			return totals[names[i]] > totals[names[j]]
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		fmt.Printf("%-12s %10.2fms\n", name, float64(totals[name].Microseconds())/1000)
	}
	fmt.Printf("%-12s %10.2fms (%d packages)\n", "total", float64(total.Microseconds())/1000, len(pkgs))
	return 0
}
