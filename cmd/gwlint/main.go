// Command gwlint runs the repository's domain analyzers
// (internal/analysis): arenaalias, syncextra, simdet, gospawn, lockorder.
//
//	gwlint ./...
//
// loads the module's non-test files, runs every analyzer on every
// package, then lock order across packages. `make lint` runs it; -json
// prints the findings as a JSON array for CI annotations. What other
// checks answer is left to them: go vet's copylocks reports a copied
// fifo.Map, the codecs' round-trip and hostile-count tests hold encoder
// and decoder to each other, giop's exception types fix each system
// exception's completion status, and obs.Registry with ftdomaind's
// catalogue test hold the metric names.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"eternalgw/internal/analysis"
	"eternalgw/internal/analysis/arenaalias"
	"eternalgw/internal/analysis/gospawn"
	"eternalgw/internal/analysis/lockorder"
	"eternalgw/internal/analysis/simdet"
	"eternalgw/internal/analysis/syncextra"
)

var analyzers = []*analysis.Analyzer{
	arenaalias.Analyzer,
	syncextra.Analyzer,
	simdet.Analyzer,
	gospawn.Analyzer,
	lockorder.Analyzer,
}

var globals = []analysis.GlobalCheck{lockorder.Global}

func main() {
	jsonFlag := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
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
	os.Exit(analysis.RunModule(w, dir, args, analyzers, globals, print))
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  gwlint [-json] [packages]   analyze packages (default ./...)

analyzers:
`)
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nsuppress a finding with //lint:allow <analyzer> <reason>\n")
}
