package obs

import (
	"strings"
	"testing"
	"time"
)

// render is the exposition /metrics serves.
func render(r *Registry) string {
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	return b.String()
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("requests_total", "Requests.", Labels{"gateway": "a"}, func() uint64 { return 3 })
	r.CounterFunc("delivered_total", "Delivered.", Labels{"node": "p00"}, func() uint64 { return 7 })
	r.GaugeFunc("cache_entries", "Entries.", nil, func() float64 { return 42 })

	out := render(r)
	for _, want := range []string{
		"# HELP requests_total Requests.",
		"# TYPE requests_total counter",
		`requests_total{gateway="a"} 3`,
		"# TYPE cache_entries gauge",
		`delivered_total{node="p00"} 7`,
		"cache_entries 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryMultipleSeriesOneFamily(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("x_total", "X.", Labels{"node": "a"}, func() uint64 { return 1 })
	r.CounterFunc("x_total", "X.", Labels{"node": "b"}, func() uint64 { return 2 })
	out := render(r)
	if strings.Count(out, "# TYPE x_total counter") != 1 {
		t.Fatalf("family header should appear once:\n%s", out)
	}
	if !strings.Contains(out, `x_total{node="a"} 1`) || !strings.Contains(out, `x_total{node="b"} 2`) {
		t.Fatalf("missing series:\n%s", out)
	}
}

func TestRegistryReregisterReplaces(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("y_total", "Y.", Labels{"gw": "g"}, func() uint64 { return 1 })
	r.CounterFunc("y_total", "Y.", Labels{"gw": "g"}, func() uint64 { return 9 })
	out := render(r)
	if !strings.Contains(out, `y_total{gw="g"} 9`) {
		t.Fatalf("replacement value not rendered:\n%s", out)
	}
	if strings.Contains(out, `y_total{gw="g"} 1`) {
		t.Fatalf("stale series survived re-registration:\n%s", out)
	}
}

func TestRegistryHistogramSummary(t *testing.T) {
	r := NewRegistry()
	h := NewBoundedHistogram(100)
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	r.Histogram("req_seconds", "Latency.", Labels{"gateway": "a"}, h)
	out := render(r)
	for _, want := range []string{
		"# TYPE req_seconds summary",
		`req_seconds{gateway="a",quantile="0.5"} 0.05`,
		`req_seconds{gateway="a",quantile="0.99"} 0.099`,
		`req_seconds_count{gateway="a"} 100`,
		`req_seconds_sum{gateway="a"} 5.05`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("esc_total", "", Labels{"v": `a"b\c` + "\n"}, func() uint64 { return 1 })
	out := render(r)
	if !strings.Contains(out, `esc_total{v="a\"b\\c\n"} 1`) {
		t.Fatalf("bad escaping:\n%s", out)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.CounterFunc("n2_total", "", nil, func() uint64 { return 0 })
	r.GaugeFunc("n3", "", nil, func() float64 { return 0 })
	r.Histogram("n4", "", nil, NewBoundedHistogram(1))
	if got := render(r); got != "" {
		t.Fatalf("nil registry rendered %q", got)
	}
	var nc *Counter
	nc.Inc() // must not panic
}
