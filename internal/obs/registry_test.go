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
	r.CounterFunc("eternalgw_requests_total", "Requests.", Labels{"gateway": "a"}, func() uint64 { return 3 })
	r.CounterFunc("eternalgw_delivered_total", "Delivered.", Labels{"node": "p00"}, func() uint64 { return 7 })
	r.GaugeFunc("eternalgw_cache_entries", "Entries.", nil, func() float64 { return 42 })

	out := render(r)
	for _, want := range []string{
		"# HELP eternalgw_requests_total Requests.",
		"# TYPE eternalgw_requests_total counter",
		`eternalgw_requests_total{gateway="a"} 3`,
		"# TYPE eternalgw_cache_entries gauge",
		`eternalgw_delivered_total{node="p00"} 7`,
		"eternalgw_cache_entries 42",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryMultipleSeriesOneFamily(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("eternalgw_x_total", "X.", Labels{"node": "a"}, func() uint64 { return 1 })
	r.CounterFunc("eternalgw_x_total", "X.", Labels{"node": "b"}, func() uint64 { return 2 })
	out := render(r)
	if strings.Count(out, "# TYPE eternalgw_x_total counter") != 1 {
		t.Fatalf("family header should appear once:\n%s", out)
	}
	if !strings.Contains(out, `eternalgw_x_total{node="a"} 1`) || !strings.Contains(out, `eternalgw_x_total{node="b"} 2`) {
		t.Fatalf("missing series:\n%s", out)
	}
}

func TestRegistryReregisterReplaces(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("eternalgw_y_total", "Y.", Labels{"gw": "g"}, func() uint64 { return 1 })
	r.CounterFunc("eternalgw_y_total", "Y.", Labels{"gw": "g"}, func() uint64 { return 9 })
	out := render(r)
	if !strings.Contains(out, `eternalgw_y_total{gw="g"} 9`) {
		t.Fatalf("replacement value not rendered:\n%s", out)
	}
	if strings.Contains(out, `eternalgw_y_total{gw="g"} 1`) {
		t.Fatalf("stale series survived re-registration:\n%s", out)
	}
}

func TestRegistryHistogramSummary(t *testing.T) {
	r := NewRegistry()
	h := NewBoundedHistogram(100)
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	r.Histogram("eternalgw_req_seconds", "Latency.", Labels{"gateway": "a"}, h)
	out := render(r)
	for _, want := range []string{
		"# TYPE eternalgw_req_seconds summary",
		`eternalgw_req_seconds{gateway="a",quantile="0.5"} 0.05`,
		`eternalgw_req_seconds{gateway="a",quantile="0.99"} 0.099`,
		`eternalgw_req_seconds_count{gateway="a"} 100`,
		`eternalgw_req_seconds_sum{gateway="a"} 5.05`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("eternalgw_esc_total", "", Labels{"v": `a"b\c` + "\n"}, func() uint64 { return 1 })
	out := render(r)
	if !strings.Contains(out, `eternalgw_esc_total{v="a\"b\\c\n"} 1`) {
		t.Fatalf("bad escaping:\n%s", out)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.CounterFunc("eternalgw_n2_total", "", nil, func() uint64 { return 0 })
	r.GaugeFunc("eternalgw_n3", "", nil, func() float64 { return 0 })
	r.Histogram("eternalgw_n4", "", nil, NewBoundedHistogram(1))
	if got := render(r); got != "" {
		t.Fatalf("nil registry rendered %q", got)
	}
}

// TestSummaryCountIsCumulative: a summary's _count and _sum go on
// growing once its window is full, so a rate over them reads the load.
func TestSummaryCountIsCumulative(t *testing.T) {
	r := NewRegistry()
	h := NewBoundedHistogram(8192)
	r.Histogram("eternalgw_req_seconds", "Latency.", nil, h)
	for i := 0; i < 8192+100; i++ {
		h.Record(time.Millisecond)
	}
	out := render(r)
	for _, want := range []string{"eternalgw_req_seconds_count 8292\n", "eternalgw_req_seconds_sum 8.292\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryRefusesConflicts: a name of another form, and a family
// registered again with another type, help text or set of label keys,
// are refused; the same family again with other label values, or a
// restarted component's series again, are not.
func TestRegistryRefusesConflicts(t *testing.T) {
	refused := func(what string, register func(r *Registry)) {
		t.Helper()
		r := NewRegistry()
		r.CounterFunc("eternalgw_x_total", "X.", Labels{"node": "a"}, func() uint64 { return 1 })
		defer func() {
			if recover() == nil {
				t.Errorf("%s: registered", what)
			}
		}()
		register(r)
	}
	one := func() uint64 { return 1 }
	refused("unprefixed", func(r *Registry) { r.CounterFunc("x_total", "X.", nil, one) })
	refused("upper case", func(r *Registry) { r.CounterFunc("eternalgw_X_total", "X.", nil, one) })
	refused("prefix alone", func(r *Registry) { r.CounterFunc("eternalgw_", "X.", nil, one) })
	refused("other help", func(r *Registry) { r.CounterFunc("eternalgw_x_total", "Y.", Labels{"node": "b"}, one) })
	refused("other type", func(r *Registry) {
		r.GaugeFunc("eternalgw_x_total", "X.", Labels{"node": "b"}, func() float64 { return 1 })
	})
	refused("other label keys", func(r *Registry) { r.CounterFunc("eternalgw_x_total", "X.", Labels{"gw": "a"}, one) })
	refused("more label keys", func(r *Registry) {
		r.CounterFunc("eternalgw_x_total", "X.", Labels{"node": "a", "gw": "g"}, one)
	})

	r := NewRegistry()
	for _, node := range []string{"a", "b", "a"} {
		r.CounterFunc("eternalgw_x_total", "X.", Labels{"node": node}, one)
	}
	if out := render(r); strings.Count(out, "eternalgw_x_total{") != 2 {
		t.Fatalf("want the series of nodes a and b:\n%s", out)
	}
}
