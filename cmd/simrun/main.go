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
	"sort"
	"strings"
	"sync"

	"eternalgw/internal/faultinject"
	"eternalgw/internal/obs"
	"eternalgw/internal/sim"
)

func main() {
	var (
		seeds     = flag.Int("seeds", 0, "sweep seeds 0..N-1 (mutually exclusive with -seed)")
		seed      = flag.Uint64("seed", 0, "replay exactly one seed")
		workload  = flag.String("workload", "", "pin a workload ("+strings.Join(sim.Workloads(), ", ")+"); empty sweeps all")
		schedule  = flag.String("schedule", "", "pin a fault class ("+strings.Join(sim.Schedules(), ", ")+"); empty draws by seed")
		mutate    = flag.String("mutate", "", "disable a safety mechanism (disable-dedup, disable-membership-sync); success inverts")
		artifacts = flag.String("artifacts", "", "directory to dump failing traces and schedules into")
		jobs      = flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel workers for sweeps")
		metrics   = flag.Bool("metrics", false, "print aggregated eternalgw_sim_* counters at the end")
		verbose   = flag.Bool("v", false, "print one line per run, not only failures")
	)
	flag.Parse()

	var mut sim.Mutations
	switch *mutate {
	case "":
	case "disable-dedup":
		mut.DisableDedup = true
	case "disable-membership-sync":
		mut.DisableMembershipSync = true
	default:
		fmt.Fprintf(os.Stderr, "simrun: unknown -mutate %q\n", *mutate)
		os.Exit(2)
	}

	workloads := sim.Workloads()
	if *workload != "" {
		workloads = []string{*workload}
	}

	single := isFlagSet("seed")
	if *seeds <= 0 && !single {
		*seeds = 100
	}

	type job struct {
		seed uint64
		wl   string
	}
	var jobsList []job
	if single {
		for _, wl := range workloads {
			jobsList = append(jobsList, job{*seed, wl})
		}
	} else {
		for s := uint64(0); s < uint64(*seeds); s++ {
			for _, wl := range workloads {
				jobsList = append(jobsList, job{s, wl})
			}
		}
	}

	reg := obs.NewRegistry()
	m := sim.NewMetrics(reg)

	type failure struct {
		res *sim.Result
	}
	var (
		mu       sync.Mutex
		failures []failure
		ran      int
	)
	ch := make(chan job)
	var wg sync.WaitGroup
	if *jobs < 1 {
		*jobs = 1
	}
	for w := 0; w < *jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				res := sim.Run(sim.Config{
					Seed:      j.seed,
					Workload:  j.wl,
					Schedule:  *schedule,
					Mutations: mut,
					Metrics:   m,
				})
				mu.Lock()
				ran++
				bad := res.Reason != "completed" || len(res.Violations) > 0
				if bad {
					failures = append(failures, failure{res})
				}
				if bad || *verbose {
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
		a, b := failures[i].res, failures[j].res
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Workload < b.Workload
	})

	if *artifacts != "" && len(failures) > 0 {
		if err := os.MkdirAll(*artifacts, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "simrun: %v\n", err)
			os.Exit(2)
		}
		for _, f := range failures {
			if err := dumpArtifact(*artifacts, f.res); err != nil {
				fmt.Fprintf(os.Stderr, "simrun: %v\n", err)
			}
		}
	}

	if *metrics {
		fmt.Print(reg.RenderPrometheus())
	}

	fmt.Printf("simrun: %d runs, %d failures\n", ran, len(failures))
	if *mutate != "" {
		// Teeth mode: the harness is broken if NO seed violates.
		if len(failures) == 0 {
			fmt.Fprintf(os.Stderr, "simrun: -mutate %s found no violating seed in %d runs — checkers have lost their teeth\n", *mutate, ran)
			os.Exit(1)
		}
		fmt.Printf("simrun: -mutate %s confirmed detectable (first violating seed %d)\n", *mutate, failures[0].res.Seed)
		return
	}
	if len(failures) > 0 {
		f := failures[0].res
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

func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
