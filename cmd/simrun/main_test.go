package main

import (
	"strings"
	"testing"
)

func TestParseFlags(t *testing.T) {
	tests := []struct {
		args    string
		wantErr string // substring; empty means accepted
	}{
		{"", ""},
		{"-seeds 50 -workload bank -schedule storm", ""},
		{"-seed 3 -workload counter", ""},
		{"-seeds 30 -mutate disable-dedup", ""},
		{"-seeds 30 -mutate disable-membership-sync", ""},
		{"-workload bnak", `unknown -workload "bnak" (one of counter, bank)`},
		{"-workload fanout", `unknown -workload "fanout"`},
		{"-schedule strom", `unknown -schedule "strom" (one of calm, `},
		{"-mutate disable-everything", `unknown -mutate "disable-everything"`},
		{"-seed 3 -seeds 50", "-seed and -seeds are mutually exclusive"},
	}
	for _, tt := range tests {
		_, err := parseFlags(strings.Fields(tt.args))
		switch {
		case tt.wantErr == "" && err != nil:
			t.Errorf("parseFlags(%q) = %v, want accepted", tt.args, err)
		case tt.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tt.wantErr)):
			t.Errorf("parseFlags(%q) = %v, want error containing %q", tt.args, err, tt.wantErr)
		}
	}
}

// TestParseFlagsSelectsRuns checks what an accepted command line runs:
// a pinned workload alone, one replayed seed, and 100 seeds by default.
func TestParseFlagsSelectsRuns(t *testing.T) {
	o, err := parseFlags([]string{"-seed", "3", "-workload", "bank"})
	if err != nil || !o.single || o.seed != 3 || len(o.workloads) != 1 || o.workloads[0] != "bank" {
		t.Fatalf("-seed 3 -workload bank: %+v, %v", o, err)
	}
	o, err = parseFlags(nil)
	if err != nil || o.single || o.seeds != 100 || len(o.workloads) != 2 {
		t.Fatalf("no flags: %+v, %v", o, err)
	}
}
