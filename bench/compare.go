package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// verdict is what comparing two sets of runs says about one metric on
// one workload.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// worse reports by how much b is worse than a for the metric, in the
// metric's own direction (positive is worse).
func worse(def metricDef, a, b float64) float64 {
	if def.better == "higher" {
		return a - b
	}
	return b - a
}

// judge applies the metric's bound to two sets of runs: the candidate's
// median may be worse than the baseline's by at most the bound (a share
// of the baseline median, an absolute difference, or nothing at all).
// Where the run-to-run spread (distance between quartiles over the
// median, of either set) is wider than the bound the comparison cannot
// resolve a change of that size: it is reported as unresolved, unless
// every candidate run is at least as good as every baseline run (ok) or
// every one is worse by more than the bound (regressed). An absolute
// bound is on a ratio whose seed value is 0 and has no relative spread;
// an exact bound is on a count, and there only a baseline whose own runs
// disagree (a rate that sits on its latency limit) leaves the comparison
// open — a candidate that is sometimes worse than a unanimous baseline
// has regressed.
func judge(def metricDef, base, cand []float64) verdict {
	if len(base) == 0 || len(cand) == 0 {
		return verdictUnresolved
	}
	mb, mc := median(base), median(cand)
	delta := worse(def, mb, mc)
	limit, widest := def.bound*mb, def.bound
	switch def.kind {
	case boundAbs:
		limit, widest = def.bound, math.Inf(1)
	case boundExact:
		limit, widest = 0, 0
	}
	if spread(base) <= widest && (def.kind == boundExact || spread(cand) <= widest) {
		if delta > limit {
			return verdictRegressed
		}
		return verdictOK
	}
	allBetter, allWorse := true, true
	for _, c := range cand {
		for _, b := range base {
			d := worse(def, b, c)
			if d > 0 {
				allBetter = false
			}
			if d <= limit {
				allWorse = false
			}
		}
	}
	switch {
	case allBetter:
		return verdictOK
	case allWorse:
		return verdictRegressed
	default:
		return verdictUnresolved
	}
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// loadSet reads every untraced result file in dir, grouped by workload.
func loadSet(dir string) (map[string][]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := map[string][]resultFile{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rf.Workload == "" || rf.Trace {
			continue
		}
		set[rf.Workload] = append(set[rf.Workload], rf)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", dir)
	}
	return set, nil
}

func column(runs []resultFile, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// compareMain implements `bench compare <setA> <setB>`: per workload and
// end-to-end metric, each set's median and quartiles and the verdict.
// Exit status: 0 all ok, 1 something regressed, 3 nothing regressed but
// something is unresolved, 2 usage or I/O error.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare <dir of baseline results> <dir of candidate results>")
		return 2
	}
	base, err := loadSet(args[0])
	if err == nil {
		var cand map[string][]resultFile
		if cand, err = loadSet(args[1]); err == nil {
			return compareSets(base, cand, stdout)
		}
	}
	fmt.Fprintf(stderr, "bench compare: %v\n", err)
	return 2
}

func compareSets(base, cand map[string][]resultFile, stdout io.Writer) int {
	counts := map[verdict]int{}
	fmt.Fprintf(stdout, "%-17s %-24s %-6s %12s %25s %12s %25s %8s  %s\n",
		"workload", "metric", "unit", "base median", "base q1..q3", "cand median", "cand q1..q3", "change", "verdict")
	var names []string
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, def := range endToEnd {
			if !def.appliesTo(name) {
				continue
			}
			a, b := column(base[name], def.name), column(cand[name], def.name)
			if len(a) == 0 && len(b) == 0 {
				continue // neither set measured it
			}
			v := judge(def, a, b)
			counts[v]++
			ma, mb := median(a), median(b)
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			change := "-"
			if ma != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/ma)
			}
			fmt.Fprintf(stdout, "%-17s %-24s %-6s %12.6g %25s %12.6g %25s %8s  %s\n",
				name, def.name, def.unit, ma, fmt.Sprintf("%.6g..%.6g (n=%d)", aq1, aq3, len(a)),
				mb, fmt.Sprintf("%.6g..%.6g (n=%d)", bq1, bq3, len(b)), change, strings.ToUpper(string(v)))
		}
	}
	fmt.Fprintf(stdout, "# %d ok, %d regressed, %d unresolved\n", counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved])
	switch {
	case counts[verdictRegressed] > 0:
		return 1
	case counts[verdictUnresolved] > 0:
		return 3
	default:
		return 0
	}
}
