package obs

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests.", Labels{"gateway": "a"})
	c.Add(3)
	r.CounterFunc("delivered_total", "Delivered.", Labels{"node": "p00"}, func() uint64 { return 7 })
	r.GaugeFunc("cache_entries", "Entries.", nil, func() float64 { return 42 })

	out := r.RenderPrometheus()
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
	r.Counter("x_total", "X.", Labels{"node": "a"}).Add(1)
	r.Counter("x_total", "X.", Labels{"node": "b"}).Add(2)
	out := r.RenderPrometheus()
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
	out := r.RenderPrometheus()
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
	out := r.RenderPrometheus()
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
	r.Counter("esc_total", "", Labels{"v": `a"b\c` + "\n"}).Inc()
	out := r.RenderPrometheus()
	if !strings.Contains(out, `esc_total{v="a\"b\\c\n"} 1`) {
		t.Fatalf("bad escaping:\n%s", out)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("n_total", "", nil)
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("counter from nil registry must still count")
	}
	r.CounterFunc("n2_total", "", nil, func() uint64 { return 0 })
	r.GaugeFunc("n3", "", nil, func() float64 { return 0 })
	r.Histogram("n4", "", nil, NewBoundedHistogram(1))
	if got := r.RenderPrometheus(); got != "" {
		t.Fatalf("nil registry rendered %q", got)
	}
	var nc *Counter
	nc.Inc() // must not panic
}
