package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	// Bounds of the test's own, so that the cases do not move when a
	// metric's bound is retuned.
	lower := metricDef{name: "latency", better: "lower", bound: 0.10}
	higher := metricDef{name: "throughput", better: "higher", bound: 0.07}
	abs := endToEndMetric("fail_ratio")
	exactLower := endToEndMetric("exactly_once_violations")
	exactHigher := endToEndMetric("rate_ok_per_s")
	tight := []float64{100, 101, 99, 100, 102, 98}
	noisy := []float64{100, 130, 90, 120, 80, 110}
	for _, tc := range []struct {
		name       string
		metric     metricDef
		base, cand []float64
		want       verdict
	}{
		{"unchanged", lower, tight, []float64{101, 100, 99, 102, 100, 101}, verdictOK},
		{"worse within the bound", lower, tight, []float64{108, 109, 107, 108, 110, 108}, verdictOK},
		{"worse beyond the bound", lower, tight, []float64{115, 116, 114, 115, 117, 113}, verdictRegressed},
		{"better", lower, tight, []float64{80, 81, 79, 80, 82, 78}, verdictOK},
		{"higher is better", higher, tight, []float64{90, 91, 89, 90, 92, 88}, verdictRegressed},
		// The spread is wider than the 10% bound and the sets overlap: a
		// change of the bound's size cannot be told from noise.
		{"noisy and overlapping", lower, noisy, []float64{105, 135, 95, 125, 85, 115}, verdictUnresolved},
		{"noisy but every run better", lower, noisy, []float64{50, 70, 40, 60, 30, 55}, verdictOK},
		{"noisy but every run much worse", lower, noisy, []float64{200, 260, 180, 240, 160, 220}, verdictRegressed},
		{"absolute bound kept", abs, []float64{0, 0, 0}, []float64{0.0005, 0, 0.0008}, verdictOK},
		{"absolute bound broken", abs, []float64{0, 0, 0}, []float64{0.002, 0.003, 0.002}, verdictRegressed},
		{"exact: any new violation", exactLower, []float64{0, 0, 0}, []float64{0, 1, 1}, verdictRegressed},
		{"exact: lower rate", exactHigher, []float64{9600, 9600, 9600}, []float64{6400, 9600, 6400}, verdictRegressed},
		// A rate that sits on the latency limit flips from run to run; a
		// baseline whose own runs disagree resolves nothing.
		{"exact: baseline runs disagree", exactHigher, []float64{9600, 6400, 9600, 9600, 6400}, []float64{6400, 9600, 6400, 6400, 9600}, verdictUnresolved},
		{"exact: same rate", exactHigher, []float64{9600, 9600, 9600}, []float64{9600, 9600, 9600}, verdictOK},
		{"missing set", lower, tight, nil, verdictUnresolved},
	} {
		if got := judge(tc.metric, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func writeSet(t *testing.T, dir, workload string, metric string, values []float64) {
	t.Helper()
	for i, v := range values {
		rf := resultFile{Workload: workload, Seed: int64(i), Metrics: map[string]float64{metric: v}}
		b, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, workload+"-"+string(rune('a'+i))+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareReportsAndExitStatus(t *testing.T) {
	base, same, slow := t.TempDir(), t.TempDir(), t.TempDir()
	writeSet(t, base, "small_rtt", "lat_p50_us", []float64{60, 61, 62})
	writeSet(t, same, "small_rtt", "lat_p50_us", []float64{61, 60, 62})
	writeSet(t, slow, "small_rtt", "lat_p50_us", []float64{90, 91, 92})
	// A traced result in the set is not an end-to-end measurement.
	traced, _ := json.Marshal(resultFile{Workload: "small_rtt", Trace: true, Metrics: map[string]float64{"lat_p50_us": 1}})
	if err := os.WriteFile(filepath.Join(same, "traced.json"), traced, 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errs bytes.Buffer
	if code := compareMain([]string{base, same}, &out, &errs); code != 0 {
		t.Errorf("equivalent sets: exit %d, want 0\n%s%s", code, out.String(), errs.String())
	}
	if !strings.Contains(out.String(), "lat_p50_us") || !strings.Contains(out.String(), "OK") {
		t.Errorf("report lacks the metric row:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{base, slow}, &out, &errs); code != 1 {
		t.Errorf("slower set: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("report does not name the regression:\n%s", out.String())
	}
	if code := compareMain([]string{base}, &out, &errs); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
	if code := compareMain([]string{base, t.TempDir()}, &out, &errs); code != 2 {
		t.Errorf("empty set: exit %d, want 2", code)
	}
}
