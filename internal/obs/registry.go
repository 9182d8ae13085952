// Package obs is the observability subsystem of the fault tolerance
// infrastructure: a lock-cheap metrics registry rendered in Prometheus
// text format, an invocation tracer that follows each operation across
// the hops of the paper's figure 5 datapath, a small leveled logger, and
// an ops HTTP server exposing /healthz, /readyz, /metrics and /statusz.
//
// Everything in this package is nil-safe: a nil *Registry, *Tracer or
// *Logger is a valid no-op, so the instrumented components (gateway,
// replication mechanisms, totem, managers) pay at most a nil check on
// their hot paths when observability is disabled.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Labels is a metric's label set. Values are escaped when rendering.
type Labels map[string]string

// Counter is a monotonically increasing metric. The zero value is ready
// to use, and a nil *Counter is a no-op, so components may keep counting
// whether or not a registry is attached.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. Like Counter it is nil-safe
// and lock-free (the float is stored as its IEEE-754 bits).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// Value returns the current value (zero for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFromBits(g.bits.Load())
}

// series is one (label set, value source) member of a metric family.
type series struct {
	labels    string // rendered {k="v",...} or ""
	counter   *Counter
	gauge     *Gauge
	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Histogram
}

// family is one named metric with its HELP/TYPE header and its series.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge" or "summary"
	series []*series
	byKey  map[string]int // labels -> index in series
}

// Registry collects metrics for the /metrics endpoint. Registration is
// rare (startup) and rendering infrequent (scrapes), so a single mutex
// guards the directory; the counters and gauges themselves are atomics
// and never contend with the datapath. A nil *Registry accepts every
// registration as a no-op and still hands out usable counters/gauges.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds (or replaces, for an identical name+labels pair) one
// series. Replacement keeps restartable components (gateways, replicas)
// from accumulating dead series.
func (r *Registry) register(name, help, typ string, labels Labels, s *series) {
	if r == nil {
		return
	}
	s.labels = renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byKey: make(map[string]int)}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if i, dup := f.byKey[s.labels]; dup {
		f.series[i] = s
		return
	}
	f.byKey[s.labels] = len(f.series)
	f.series = append(f.series, s)
}

// Counter registers and returns an owned counter. With a nil registry
// the counter still works; it is simply never rendered.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", labels, &series{counter: c})
	return c
}

// Gauge registers and returns an owned gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", labels, &series{gauge: g})
	return g
}

// CounterFunc registers a counter read from fn at render time. This is
// how components expose counters they already maintain as atomics: the
// datapath keeps its bare atomic add and the registry only reads on
// scrape.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.register(name, help, "counter", labels, &series{counterFn: fn})
}

// GaugeFunc registers a gauge read from fn at render time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, "gauge", labels, &series{gaugeFn: fn})
}

// Histogram registers an existing duration histogram, rendered as a
// Prometheus summary (quantiles in seconds, _sum, _count) from a single
// Snapshot per scrape.
func (r *Registry) Histogram(name, help string, labels Labels, h *Histogram) {
	r.register(name, help, "summary", labels, &series{hist: h})
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	snaps := make([][]*series, len(fams))
	for i, f := range fams {
		snaps[i] = make([]*series, len(f.series))
		copy(snaps[i], f.series)
	}
	r.mu.Unlock()

	var b strings.Builder
	for i, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range snaps[i] {
			writeSeries(&b, f.name, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderPrometheus returns the rendered exposition as a string.
func (r *Registry) RenderPrometheus() string {
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	return b.String()
}

func writeSeries(b *strings.Builder, name string, s *series) {
	switch {
	case s.counter != nil:
		fmt.Fprintf(b, "%s%s %d\n", name, s.labels, s.counter.Value())
	case s.counterFn != nil:
		fmt.Fprintf(b, "%s%s %d\n", name, s.labels, s.counterFn())
	case s.gauge != nil:
		fmt.Fprintf(b, "%s%s %s\n", name, s.labels, formatFloat(s.gauge.Value()))
	case s.gaugeFn != nil:
		fmt.Fprintf(b, "%s%s %s\n", name, s.labels, formatFloat(s.gaugeFn()))
	case s.hist != nil:
		snap := s.hist.Snapshot()
		for _, q := range [...]struct {
			q string
			d time.Duration
		}{{"0.5", snap.P50}, {"0.9", snap.P90}, {"0.99", snap.P99}} {
			fmt.Fprintf(b, "%s%s %s\n", name, mergeLabels(s.labels, `quantile="`+q.q+`"`), formatFloat(q.d.Seconds()))
		}
		fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatFloat(snap.Sum.Seconds()))
		fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, snap.Count)
	}
}

// mergeLabels appends extra (already-rendered k="v" text) to a rendered
// label block.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabelValue(labels[k]))
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}
