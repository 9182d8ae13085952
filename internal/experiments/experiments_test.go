package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestAllExperimentsRunQuick executes the entire reproduction suite in
// quick mode and sanity-checks each table's shape, acting as the
// integration test for the full stack.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short mode")
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			res, err := r.Run(Config{Quick: true})
			if err != nil {
				t.Fatalf("%s failed: %v", r.ID, err)
			}
			if res.ID != r.ID {
				t.Errorf("result id = %s", res.ID)
			}
			if len(res.Headers) == 0 || len(res.Rows) == 0 {
				t.Fatalf("%s produced an empty table", r.ID)
			}
			for i, row := range res.Rows {
				if len(row) != len(res.Headers) {
					t.Errorf("row %d has %d cells, want %d", i, len(row), len(res.Headers))
				}
			}
			out := Format(res)
			if !strings.Contains(out, res.Title) {
				t.Errorf("formatted output missing title")
			}
		})
	}
}

func TestE3ShapeExactSuppression(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	res, err := runE3DuplicateSuppression(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every row must suppress exactly (k-1) * ops duplicates and execute
	// exactly once at every replica.
	for _, row := range res.Rows {
		suppressed, _ := strconv.Atoi(row[3])
		expected, _ := strconv.Atoi(row[4])
		if suppressed != expected {
			t.Errorf("k=%s: suppressed %s, want %s", row[0], row[3], row[4])
		}
		if row[5] != "true" {
			t.Errorf("k=%s: replicas did not execute exactly once", row[0])
		}
	}
}

func TestE7ShapeShowsAbandonment(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	res, err := runE7SingleGatewayFailure(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	vals := rowMap(res)
	if vals["abandoned (no response, fate unknown)"] == "0" {
		t.Error("expected abandoned requests with a single gateway")
	}
	if vals["re-executions (state corruption risk)"] == "0" {
		t.Error("expected the in-flight operation to execute twice")
	}
}

func TestE8ShapeZeroLossZeroDuplication(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	res, err := runE8GatewayFailover(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	vals := rowMap(res)
	if vals["operations lost"] != "0" {
		t.Errorf("lost = %s", vals["operations lost"])
	}
	if vals["operations duplicated"] != "0" {
		t.Errorf("duplicated = %s", vals["operations duplicated"])
	}
	if vals["profile failovers performed"] == "0" {
		t.Error("no failovers recorded; the experiment did not exercise failover")
	}
}

func TestE11ShapeConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	res, err := runE11ReplicaConsistency(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	vals := rowMap(res)
	if vals["replica states byte-identical"] != "true" {
		t.Error("replicas diverged")
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("e3"); !ok {
		t.Error("ByID(e3) not found")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("ByID(E99) found")
	}
}

func TestFormatAligned(t *testing.T) {
	out := Format(Result{
		ID: "EX", Title: "T", Source: "S",
		Headers: []string{"a", "longer"},
		Rows:    [][]string{{"wide-cell", "b"}},
		Notes:   []string{"n"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4+0+1 { // title, header, rule, row, note
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[len(lines)-1], "note: ") {
		t.Errorf("missing note line")
	}
}

func rowMap(res Result) map[string]string {
	out := make(map[string]string, len(res.Rows))
	for _, row := range res.Rows {
		if len(row) >= 2 {
			out[row[0]] = row[1]
		}
	}
	return out
}

func TestThroughput(t *testing.T) {
	tp := startThroughput()
	tp.Add(10)
	time.Sleep(10 * time.Millisecond)
	rate := tp.PerSecond()
	if rate <= 0 || rate > 10_000 {
		t.Fatalf("rate = %f", rate)
	}
}
