// Command gwlint runs the repository's domain analyzers
// (internal/analysis): arenaalias, completedno, metricname, syncextra,
// simdet, gospawn, lockorder.
//
//	gwlint ./...
//
// loads the module's non-test files, runs every analyzer on every
// package, then the whole-module checks (metric/doc sync, module-wide
// duplicate registration, lock order across packages). `make lint` runs
// it; -json prints the findings as a JSON array for CI annotations. What
// other checks answer is left to them: go vet's copylocks reports a copied
// fifo.Map, and the codecs' round-trip and hostile-count tests hold
// encoder and decoder to each other.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"eternalgw/internal/analysis"
	"eternalgw/internal/analysis/arenaalias"
	"eternalgw/internal/analysis/completedno"
	"eternalgw/internal/analysis/gospawn"
	"eternalgw/internal/analysis/lockorder"
	"eternalgw/internal/analysis/metricname"
	"eternalgw/internal/analysis/simdet"
	"eternalgw/internal/analysis/syncextra"
)

var analyzers = []*analysis.Analyzer{
	arenaalias.Analyzer,
	completedno.Analyzer,
	metricname.Analyzer,
	syncextra.Analyzer,
	simdet.Analyzer,
	gospawn.Analyzer,
	lockorder.Analyzer,
}

var globals = []analysis.GlobalCheck{
	metricname.DocSync,
	lockorder.Global,
}

func main() {
	jsonFlag := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	// The module-wide checks (doc sync, cross-package duplicates) only
	// mean something against the full registration set; on a package
	// subset every absent package would read as drift.
	globalChecks := globals
	for _, a := range args {
		if a != "./..." {
			globalChecks = nil
		}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gwlint:", err)
		os.Exit(1)
	}
	w, print := io.Writer(os.Stderr), analysis.PrintDiagnostics
	if *jsonFlag {
		w, print = os.Stdout, analysis.PrintJSON
	}
	os.Exit(analysis.RunModule(w, dir, args, analyzers, globalChecks, print))
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  gwlint [-json] [packages]   analyze packages (default ./...; the
                              whole-module checks run on ./... only)

analyzers:
`)
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nsuppress a finding with //lint:allow <analyzer> <reason>\n")
}
