// Command simrun drives the deterministic simulation (internal/sim)
// from the command line: seed sweeps for CI and soak, exact single-seed
// replay for debugging, and artifact dumps (trace + fault schedule) for
// every failing run.
//
// Usage:
//
//	simrun -seeds 1000                          # sweep seeds 0..999, all workloads
//	simrun -seed 188 -workload bank             # replay one seed exactly
//	simrun -seeds 200 -schedule storm           # pin a fault class
//	simrun -seeds 50 -mutate disable-dedup      # checker-teeth mode: violations expected
//	simrun -seeds 1000 -artifacts /tmp/simfail  # dump failing traces there
//
// Exit status is 0 when every run completed with no invariant
// violations (inverted under -mutate: 0 when at least one seed violates,
// proving the checkers still have teeth).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"eternalgw/internal/faultinject"
	"eternalgw/internal/sim"
)

// runOpts is what the command line asks for.
type runOpts struct {
	seeds     int
	seed      uint64
	single    bool // -seed was given: replay that seed alone
	workloads []string
	schedule  string
	mutate    string
	mut       sim.Mutations
	artifacts string
	jobs      int
	metrics   bool
	verbose   bool
}

// parseFlags reads the command line and rejects what names nothing the
// simulator has — a workload, schedule class or mutation it does not
// know — and -seed beside -seeds, so a misspelling cannot run something
// else and report it green.
func parseFlags(args []string) (runOpts, error) {
	o := runOpts{workloads: sim.Workloads()}
	var workload string
	fs := flag.NewFlagSet("simrun", flag.ExitOnError)
	fs.IntVar(&o.seeds, "seeds", 0, "sweep seeds 0..N-1 (mutually exclusive with -seed)")
	fs.Uint64Var(&o.seed, "seed", 0, "replay exactly one seed")
	fs.StringVar(&workload, "workload", "", "pin a workload ("+strings.Join(sim.Workloads(), ", ")+"); empty sweeps all")
	fs.StringVar(&o.schedule, "schedule", "", "pin a fault class ("+strings.Join(sim.Schedules(), ", ")+"); empty draws by seed")
	fs.StringVar(&o.mutate, "mutate", "", "disable a safety mechanism (disable-dedup, disable-membership-sync); success inverts")
	fs.StringVar(&o.artifacts, "artifacts", "", "directory to dump failing traces and schedules into")
	fs.IntVar(&o.jobs, "jobs", runtime.GOMAXPROCS(0), "parallel workers for sweeps")
	fs.BoolVar(&o.metrics, "metrics", false, "print the sweep's totals (runs, violations, events, faults, reissues, dedups, virtual ms) at the end")
	fs.BoolVar(&o.verbose, "v", false, "print one line per run, not only failures")
	_ = fs.Parse(args) // ExitOnError

	var seedsSet bool
	fs.Visit(func(f *flag.Flag) {
		o.single = o.single || f.Name == "seed"
		seedsSet = seedsSet || f.Name == "seeds"
	})
	if o.single && seedsSet {
		return o, fmt.Errorf("-seed and -seeds are mutually exclusive")
	}
	if workload != "" {
		if !slices.Contains(sim.Workloads(), workload) {
			return o, fmt.Errorf("unknown -workload %q (one of %s)", workload, strings.Join(sim.Workloads(), ", "))
		}
		o.workloads = []string{workload}
	}
	if o.schedule != "" && !slices.Contains(sim.Schedules(), o.schedule) {
		return o, fmt.Errorf("unknown -schedule %q (one of %s)", o.schedule, strings.Join(sim.Schedules(), ", "))
	}
	switch o.mutate {
	case "":
	case "disable-dedup":
		o.mut.DisableDedup = true
	case "disable-membership-sync":
		o.mut.DisableMembershipSync = true
	default:
		return o, fmt.Errorf("unknown -mutate %q (one of disable-dedup, disable-membership-sync)", o.mutate)
	}
	if o.seeds <= 0 && !o.single {
		o.seeds = 100
	}
	o.jobs = max(o.jobs, 1)
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "simrun: %v\n", err)
		os.Exit(2)
	}

	type job struct {
		seed uint64
		wl   string
	}
	var jobsList []job
	if o.single {
		for _, wl := range o.workloads {
			jobsList = append(jobsList, job{o.seed, wl})
		}
	} else {
		for s := uint64(0); s < uint64(o.seeds); s++ {
			for _, wl := range o.workloads {
				jobsList = append(jobsList, job{s, wl})
			}
		}
	}

	var (
		mu         sync.Mutex
		failures   []*sim.Result
		ran        int
		violations int
		totals     sim.RunStats
	)
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < o.jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				res := sim.Run(sim.Config{
					Seed:      j.seed,
					Workload:  j.wl,
					Schedule:  o.schedule,
					Mutations: o.mut,
				})
				mu.Lock()
				ran++
				violations += len(res.Violations)
				totals.Events += res.Stats.Events
				totals.Faults += res.Stats.Faults
				totals.Reissues += res.Stats.Reissues
				totals.Dedups += res.Stats.Dedups
				totals.VirtualMS += res.Stats.VirtualMS
				bad := res.Reason != "completed" || len(res.Violations) > 0
				if bad {
					failures = append(failures, res)
				}
				if bad || o.verbose {
					status := "ok"
					if bad {
						status = fmt.Sprintf("FAIL (%s, %d violations)", res.Reason, len(res.Violations))
					}
					fmt.Printf("seed=%d workload=%s schedule=%s ordering=%s: %s\n", res.Seed, res.Workload, res.Schedule, res.Ordering, status)
					for _, v := range res.Violations {
						fmt.Printf("  %s\n", v)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobsList {
		ch <- j
	}
	close(ch)
	wg.Wait()

	sort.Slice(failures, func(i, j int) bool {
		a, b := failures[i], failures[j]
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Workload < b.Workload
	})

	if o.artifacts != "" && len(failures) > 0 {
		if err := os.MkdirAll(o.artifacts, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "simrun: %v\n", err)
			os.Exit(2)
		}
		for _, f := range failures {
			if err := dumpArtifact(o.artifacts, f); err != nil {
				fmt.Fprintf(os.Stderr, "simrun: %v\n", err)
			}
		}
	}

	if o.metrics {
		fmt.Printf("simrun: totals: runs=%d violations=%d events=%d faults=%d reissues=%d dedups=%d virtual_ms=%d\n",
			ran, violations, totals.Events, totals.Faults, totals.Reissues, totals.Dedups, totals.VirtualMS)
	}

	fmt.Printf("simrun: %d runs, %d failures\n", ran, len(failures))
	if o.mutate != "" {
		// Teeth mode: the harness is broken if NO seed violates.
		if len(failures) == 0 {
			fmt.Fprintf(os.Stderr, "simrun: -mutate %s found no violating seed in %d runs — checkers have lost their teeth\n", o.mutate, ran)
			os.Exit(1)
		}
		fmt.Printf("simrun: -mutate %s confirmed detectable (first violating seed %d)\n", o.mutate, failures[0].Seed)
		return
	}
	if len(failures) > 0 {
		f := failures[0]
		fmt.Fprintf(os.Stderr, "simrun: replay first failure (%s ordering) with: simrun -seed %d -workload %s -schedule %s\n",
			f.Ordering, f.Seed, f.Workload, f.Schedule)
		os.Exit(1)
	}
}

// dumpArtifact writes the failing run's canonical trace and its fault
// schedule (planned and fired) so the failure can be re-audited offline
// and replayed by seed.
func dumpArtifact(dir string, res *sim.Result) error {
	base := fmt.Sprintf("seed%d-%s-%s", res.Seed, res.Workload, res.Schedule)
	var b strings.Builder
	fmt.Fprintf(&b, "# simrun failure artifact\n")
	fmt.Fprintf(&b, "# replay: simrun -seed %d -workload %s -schedule %s\n", res.Seed, res.Workload, res.Schedule)
	fmt.Fprintf(&b, "# ordering: %s (drawn from the seed's schedule stream)\n", res.Ordering)
	fmt.Fprintf(&b, "# reason: %s\n", res.Reason)
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "# violation: %s\n", v)
	}
	fmt.Fprintf(&b, "# schedule (planned):\n")
	for _, line := range strings.Split(strings.TrimRight(faultinject.Describe(res.Planned), "\n"), "\n") {
		fmt.Fprintf(&b, "#   %s\n", line)
	}
	fmt.Fprintf(&b, "# schedule (fired):\n")
	for _, line := range strings.Split(strings.TrimRight(faultinject.Describe(res.Fired), "\n"), "\n") {
		fmt.Fprintf(&b, "#   %s\n", line)
	}
	fmt.Fprintf(&b, "# trace (%d events, hash %016x):\n", res.Trace.Len(), res.TraceHash)
	b.WriteString(res.Trace.Dump())
	return os.WriteFile(filepath.Join(dir, base+".trace"), []byte(b.String()), 0o644)
}
