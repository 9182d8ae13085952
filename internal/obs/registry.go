// Package obs is the observability subsystem of the fault tolerance
// infrastructure: a lock-cheap metrics registry rendered in Prometheus
// text format, an invocation tracer that follows each operation across
// the hops of the paper's figure 5 datapath, a component tag for slog
// loggers, and an ops HTTP server exposing /healthz, /readyz, /metrics
// and /statusz.
//
// A nil *Registry or *Tracer is a valid no-op, so the instrumented
// components (gateway, replication mechanisms, totem, managers) pay at
// most a nil check on their hot paths when observability is disabled.
package obs

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"
)

// Labels is a metric's label set. Values are escaped when rendering.
type Labels map[string]string

// series is one (label set, value source) member of a metric family.
type series struct {
	labels    string // rendered {k="v",...} or ""
	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Histogram
}

// family is one named metric with its HELP/TYPE header and its series.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge" or "summary"
	keys   string // the label keys every series has, sorted
	series []*series
	byKey  map[string]int // labels -> index in series
}

// Registry collects metrics for the /metrics endpoint. Registration is
// rare (startup) and rendering infrequent (scrapes), so a single mutex
// guards the directory; the counters and gauges themselves are atomics
// and never contend with the datapath. A nil *Registry accepts every
// registration as a no-op.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// metricName is the form of every family name the registry takes.
var metricName = regexp.MustCompile(`^eternalgw_[a-z0-9_]+$`)

// register adds (or replaces, for an identical name+labels pair) one
// series. Replacement keeps restartable components (gateways, replicas)
// from accumulating dead series. It panics on a name of another form, and
// on a family registered again with another type, help text or set of
// label keys: a scrape could not tell such series apart.
func (r *Registry) register(name, help, typ string, labels Labels, s *series) {
	if r == nil {
		return
	}
	var keys string
	s.labels, keys = renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	switch {
	case !ok && !metricName.MatchString(name):
		panic(fmt.Sprintf("obs: metric name %q is not of the form %s", name, metricName))
	case !ok:
		f = &family{name: name, help: help, typ: typ, keys: keys, byKey: make(map[string]int)}
		r.byName[name] = f
		r.families = append(r.families, f)
	case f.typ != typ || f.help != help || f.keys != keys:
		panic(fmt.Sprintf("obs: metric %s registered as a %s %q with labels [%s] and again as a %s %q with labels [%s]",
			name, f.typ, f.help, f.keys, typ, help, keys))
	}
	if i, dup := f.byKey[s.labels]; dup {
		f.series[i] = s
		return
	}
	f.byKey[s.labels] = len(f.series)
	f.series = append(f.series, s)
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

func writeSeries(b *strings.Builder, name string, s *series) {
	switch {
	case s.counterFn != nil:
		fmt.Fprintf(b, "%s%s %d\n", name, s.labels, s.counterFn())
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

// renderLabels renders a label block, and lists its keys.
func renderLabels(labels Labels) (rendered, keys string) {
	if len(labels) == 0 {
		return "", ""
	}
	names := make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabelValue(labels[k]))
	}
	b.WriteByte('}')
	return b.String(), strings.Join(names, ",")
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
