package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the shape of ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestNamesMatchBenchmarkJSON keeps the program and BENCHMARK.json in
// step: the same workloads with the same reasons, the gated end-to-end
// metrics with their units, directions and bounds, and every per-layer
// metric. -list prints the same names.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if got := bf.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, wl.name, wl.why)
		}
		if len(wl.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", wl.name, len(wl.why))
		}
	}

	var gated []metricDef
	for _, m := range endToEnd {
		if m.gated {
			gated = append(gated, m)
		}
	}
	check := func(kind string, want []metricDef, got []benchmarkMetric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s better], the program %s [%s, %s better]", kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.bound):
				t.Errorf("%s: bound in BENCHMARK.json differs from the program's %v", m.name, m.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.name)
			}
		}
	}
	check("end_to_end", gated, bf.EndToEnd, true)
	check("per_layer", perLayer, bf.PerLayer, false)

	var list bytes.Buffer
	printList(&list)
	for _, wl := range bf.Workloads {
		if !strings.Contains(list.String(), "workload "+wl.Name+"\n") {
			t.Errorf("-list does not print workload %s", wl.Name)
		}
	}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		if !strings.Contains(list.String(), " "+m.Name+" "+m.Unit+"\n") {
			t.Errorf("-list does not print %s %s", m.Name, m.Unit)
		}
	}
	// Windows under 24 s leave room for fewer than three faults of each
	// kind on failover_passive.
	if steps, _ := faultPlan(time.Duration(bf.RunSeconds)*time.Second, rand.New(rand.NewSource(1))); len(steps) != 6 {
		t.Errorf("run_seconds = %d gives failover_passive %d fault steps, want 6", bf.RunSeconds, len(steps))
	}
}

// TestSmokeEachWorkload runs every workload for a second, untraced and
// traced, through the same entry point as the command line.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for a second")
	}
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			wl, trace := wl, trace
			t.Run(wl.name+"/trace="+trace, func(t *testing.T) {
				var out, errs bytes.Buffer
				code := realMain([]string{"--workload", wl.name, "--seed", "5", "--seconds", "1", "--trace", trace, "--out", t.TempDir()}, &out, &errs)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				for _, l := range lines {
					if strings.HasPrefix(l, "# INVALID") {
						t.Errorf("%s", l)
					}
				}
				if code != 0 {
					t.Fatalf("exit %d\n%s%s", code, out.String(), errs.String())
				}
				var res outcome
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s%s", err, out.String(), errs.String())
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := perLayer
				if trace == "0" {
					want = nil
					for _, m := range endToEnd {
						if m.gated {
							want = append(want, m)
						}
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics in the result object, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.name]
					if !ok || v.Unit != m.unit {
						t.Errorf("metric %s [%s] missing from the result object (got %+v)", m.name, m.unit, v)
					}
					if trace == "0" && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v: must never be 0", m.name, v.Value)
					}
				}
			})
		}
	}
}

// TestSpoiledWindow pins what sends a window back to be measured again: a
// fault step that was not carried out and a request that failed. (The
// third reason, a steady ring that reconfigured, needs a running domain;
// the smoke test covers its quiet side.)
func TestSpoiledWindow(t *testing.T) {
	e := &env{wl: &workload{}}
	window := func(failed uint64, faultErr error) *measured {
		p := &phaseResult{attempted: 100, failed: failed}
		return &measured{res: &driveResult{phases: []*phaseResult{p}, faults: []faultRec{{kind: "primary", fired: 1, restored: 2, err: faultErr}}}}
	}
	if why := spoiled(e, window(0, nil)); why != "" {
		t.Errorf("clean window spoiled: %s", why)
	}
	if why := spoiled(e, window(1, nil)); !strings.Contains(why, "1 requests failed") {
		t.Errorf("window with a failed request: %q", why)
	}
	if why := spoiled(e, window(0, errors.New("did not rejoin"))); !strings.Contains(why, "did not rejoin") {
		t.Errorf("window with a lost fault step: %q", why)
	}
	if why := spoiled(e, nil); why != "" {
		t.Errorf("no window yet: %q", why)
	}
}
