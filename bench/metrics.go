package main

import (
	"fmt"
	"io"
	"sort"
)

// boundKind says how a metric's regression bound is applied.
type boundKind int

const (
	boundRel   boundKind = iota // share of the baseline median
	boundAbs                    // absolute difference of medians
	boundExact                  // any worsening of the median
)

// metricDef describes one metric the benchmark emits.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	kind   boundKind
	// gated metrics are the end_to_end list of BENCHMARK.json. The driver
	// bounds the same list on every workload and accepts a bound only if
	// ten runs of the same code spread by less than it, so a gated metric
	// is defined and non-zero on every workload and steady on this sandbox
	// whatever the hour — which no timed metric is (see endToEnd). The
	// others are printed, stored in the result file and bounded by `bench
	// compare`.
	gated bool
	on    []string // workloads the metric is reported on; nil means all
}

func (m metricDef) appliesTo(wl string) bool {
	if m.on == nil {
		return true
	}
	for _, w := range m.on {
		if w == wl {
			return true
		}
	}
	return false
}

var (
	steadyLoads = []string{"small_rtt", "large_rtt", "udp_ring_ladder"}
	ladder      = []string{"udp_ring_ladder"}
	failover    = []string{"failover_passive"}
)

// endToEndMetric returns the definition of the named end-to-end metric.
func endToEndMetric(name string) metricDef {
	for _, d := range endToEnd {
		if d.name == name {
			return d
		}
	}
	panic("bench: no end-to-end metric " + name)
}

// endToEnd are the metrics a user of the system would see, measured with
// tracing off.
//
// The bounds of the timed metrics are wider than the issue proposed
// (0.10 on lat_p50_us, 0.07 on ops_per_s and cpu_us_per_op). A bound must
// exceed the run-to-run spread of the same code or the comparison
// resolves nothing, and the shared 2-core sandbox changes speed: for
// minutes at a time the same work costs a fifth to a third more CPU
// (README, "Stated limits"). Between ten runs of the seed the quartiles of
// the timed metrics lie 6–28% of the median apart depending on the hour,
// and 44% for the open-loop latency of the ladder, which queueing
// amplifies (SEED_VALUES.json). No bound the driver allows (at most 0.25)
// holds them, so they are not gated; compare them in alternating pairs of
// runs. The allocation figures and the memory peak repeat to a few percent.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, gated: true},
	{name: "lat_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "lat_p99_us", unit: "us", better: "lower", bound: 0.25, on: steadyLoads},
	{name: "lat_p99_us_r1", unit: "us", better: "lower", bound: 0.25, on: ladder},
	{name: "lat_p99_us_r3", unit: "us", better: "lower", bound: 0.25, on: ladder},
	{name: "rate_ok_per_s", unit: "req/s", better: "higher", kind: boundExact, on: ladder},
	{name: "ops_per_s", unit: "op/s", better: "higher", bound: 0.25, on: steadyLoads},
	{name: "fail_ratio", unit: "ratio", better: "lower", bound: 0.001, kind: boundAbs},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.15, gated: true},
	{name: "alloc_kb_per_op", unit: "KiB", better: "lower", bound: 0.05, gated: true},
	{name: "rss_peak_mb", unit: "MiB", better: "lower", bound: 0.25, gated: true},
	{name: "outage_gateway_ms", unit: "ms", better: "lower", bound: 0.25, on: failover},
	{name: "outage_primary_ms", unit: "ms", better: "lower", bound: 0.25, on: failover},
	{name: "exactly_once_violations", unit: "count", better: "lower", kind: boundExact},
}

// perLayer are the metrics of single layers, from the traced run: the
// transport and servant wrappers, Stats() deltas over the traced window
// and the probe ladder. A layer that a workload does not use reports 0.
var perLayer = []metricDef{
	{name: "cdr.octets_rt_ns", unit: "ns", better: "lower"},
	{name: "cdr.octets_rt_allocs", unit: "count", better: "lower"},
	{name: "giop.request_rt_ns", unit: "ns", better: "lower"},
	{name: "giop.request_rt_allocs", unit: "count", better: "lower"},
	{name: "giop.request_rt_kb", unit: "KiB", better: "lower"},
	{name: "giop.reply_rt_ns", unit: "ns", better: "lower"},
	{name: "giop.reply_rt_allocs", unit: "count", better: "lower"},
	{name: "giop.reply_rt_kb", unit: "KiB", better: "lower"},
	{name: "orb.direct_p50_us", unit: "us", better: "lower"},
	{name: "orb.direct_allocs", unit: "count", better: "lower"},
	{name: "core.edge_us", unit: "us", better: "lower"},
	{name: "core.requests_forwarded_per_op", unit: "count", better: "lower"},
	{name: "core.sheds_per_op", unit: "count", better: "lower"},
	{name: "core.cache_answers_per_reissue", unit: "ratio", better: "higher"},
	{name: "admission.admit_ns", unit: "ns", better: "lower"},
	{name: "admission.shed_ratio", unit: "ratio", better: "lower"},
	{name: "replication.invoke_p50_us", unit: "us", better: "lower"},
	{name: "replication.self_us", unit: "us", better: "lower"},
	{name: "replication.wire_rt_ns", unit: "ns", better: "lower"},
	{name: "replication.wire_rt_allocs", unit: "count", better: "lower"},
	{name: "replication.wire_rt_kb", unit: "KiB", better: "lower"},
	{name: "replication.dup_responses_per_op", unit: "count", better: "lower"},
	{name: "replication.early_discard_ratio", unit: "ratio", better: "higher"},
	{name: "replication.dup_invocations_per_op", unit: "count", better: "lower"},
	{name: "replication.checkpoints_per_kop", unit: "count", better: "lower"},
	{name: "replication.transfer_entries_replayed", unit: "count", better: "lower"},
	{name: "replication.failovers", unit: "count", better: "lower"},
	{name: "replica.exec_p50_us", unit: "us", better: "lower"},
	{name: "replica.execs_per_op", unit: "count", better: "lower"},
	{name: "replica.skew_p50_us", unit: "us", better: "lower"},
	{name: "leg.request_p50_us", unit: "us", better: "lower"},
	{name: "leg.request_p99_us", unit: "us", better: "lower"},
	{name: "leg.reply_p50_us", unit: "us", better: "lower"},
	{name: "leg.reply_p99_us", unit: "us", better: "lower"},
	{name: "logrec.append_ns", unit: "ns", better: "lower"},
	{name: "logrec.append_allocs", unit: "count", better: "lower"},
	{name: "thinclient.failovers", unit: "count", better: "lower"},
	{name: "thinclient.reissues", unit: "count", better: "lower"},
	{name: "thinclient.call_overhead_us", unit: "us", better: "lower"},
	{name: "totem.deliver_p50_us", unit: "us", better: "lower"},
	{name: "totem.mcast_ops_per_s", unit: "op/s", better: "higher"},
	{name: "totem.datagrams_per_op", unit: "count", better: "lower"},
	{name: "totem.forwards_per_op", unit: "count", better: "lower"},
	{name: "totem.ops_per_batch", unit: "count", better: "higher"},
	{name: "totem.parts_per_pack", unit: "count", better: "higher"},
	{name: "totem.token_passes_per_op", unit: "count", better: "lower"},
	{name: "totem.retransmits_per_kop", unit: "count", better: "lower"},
	{name: "totem.demotions", unit: "count", better: "lower"},
	{name: "totem.reconfigs", unit: "count", better: "lower"},
	{name: "memnet.broadcast_ns", unit: "ns", better: "lower"},
	{name: "memnet.datagrams_per_op", unit: "count", better: "lower"},
	{name: "memnet.kb_per_op", unit: "KiB", better: "lower"},
	{name: "memnet.overflow_drops", unit: "count", better: "lower"},
	{name: "memnet.bcast_p50_us", unit: "us", better: "lower"},
	{name: "udpnet.broadcast_ns", unit: "ns", better: "lower"},
	{name: "udpnet.datagrams_per_op", unit: "count", better: "lower"},
	{name: "udpnet.kb_per_op", unit: "KiB", better: "lower"},
	{name: "udpnet.datagrams_per_flush", unit: "count", better: "higher"},
	{name: "udpnet.rx_datagrams_per_batch", unit: "count", better: "higher"},
	{name: "udpnet.drops", unit: "count", better: "lower"},
	{name: "udpnet.bcast_p50_us", unit: "us", better: "lower"},
	{name: "domain.new_s", unit: "s", better: "lower"},
	{name: "ftmgmt.deploy_s", unit: "s", better: "lower"},
	{name: "core.add_gateway_s", unit: "s", better: "lower"},
	{name: "totem.promote_s", unit: "s", better: "lower"},
	{name: "go.gc_cycles_per_s", unit: "1/s", better: "lower"},
	{name: "go.gc_pause_ms_per_s", unit: "ms/s", better: "lower"},
	{name: "go.cpu_sys_share", unit: "ratio", better: "lower"},
	{name: "go.goroutines_peak", unit: "count", better: "lower"},
	{name: "gen.late_p99_us", unit: "us", better: "lower"},
	{name: "gen.inflight_peak", unit: "count", better: "lower"},
	{name: "trace.lat_p50_us", unit: "us", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.reconcile_ratio", unit: "ratio", better: "lower"},
	{name: "trace.spans", unit: "count", better: "higher"},
}

// metricSet collects values as a run produces them.
type metricSet struct {
	values map[string]float64
	notes  map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]float64{}, notes: map[string]string{}}
}

func (m *metricSet) set(name string, v float64) { m.values[name] = v }

// setTiming records a timing's median and tail under the two names,
// noting the sample count and the percentile the tail was read at.
func (m *metricSet) setTiming(p50Name, tailName string, t timing, scale float64) {
	if p50Name != "" {
		m.values[p50Name] = t.P50 / scale
		m.notes[p50Name] = fmt.Sprintf("n=%d", t.N)
	}
	if tailName != "" {
		m.values[tailName] = t.Tail / scale
		m.notes[tailName] = fmt.Sprintf("n=%d p%g", t.N, t.TailAt)
	}
}

// print writes every defined metric that has a value as `name value
// unit`, then any remaining values (diagnostics) sorted by name.
func (m *metricSet) print(w io.Writer, defs []metricDef) {
	seen := map[string]bool{}
	for _, d := range defs {
		v, ok := m.values[d.name]
		if !ok {
			continue
		}
		seen[d.name] = true
		line := fmt.Sprintf("%s %.6g %s", d.name, v, d.unit)
		if n := m.notes[d.name]; n != "" {
			line += "  # " + n
		}
		fmt.Fprintln(w, line)
	}
	var rest []string
	for name := range m.values {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		fmt.Fprintf(w, "%s %.6g -  # diagnostic\n", name, m.values[name])
	}
}
