// Command bench is the repository's reference benchmark: it stands a
// fault tolerance domain up in-process, drives it as a real IIOP client
// over loopback TCP, checks every reply, and prints every metric by name
// with its unit. See README.md in this directory.
//
//	go run . -workload small_rtt -seed 1 [-seconds 24] [-trace 1]
//	go run . -list
//	go run . compare <setA> <setB>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (see -list)")
		seed    = fs.Int64("seed", 1, "seed for payload bytes, arrival times and fault jitter")
		seconds = fs.Int("seconds", 24, "length of the measured window (BENCHMARK.json run_seconds)")
		trace   = fs.Int("trace", 0, "1 runs the traced variant: per-layer metrics, spans and the probe ladder")
		outDir  = fs.String("out", "bench/out", "directory for result and trace files")
		list    = fs.Bool("list", false, "print workload and metric names and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printList(stdout)
		return 0
	}
	wl := workloadByName(*name)
	if wl == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (try -list)\n", *name)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}
	r := newRunner(wl, *seed, *seconds, *trace != 0, *outDir, stdout)
	out, file, err := r.run()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	path, err := r.writeResult(file)
	if err != nil {
		fmt.Fprintf(stderr, "bench: writing result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# result written to %s\n", path)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// printList prints the names BENCHMARK.json must agree with.
func printList(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload %s\n", wl.name)
	}
	for _, m := range endToEnd {
		kind := "end_to_end"
		if !m.gated {
			kind = "end_to_end_ungated"
		}
		fmt.Fprintf(w, "%s %s %s\n", kind, m.name, m.unit)
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "per_layer %s %s\n", m.name, m.unit)
	}
}
