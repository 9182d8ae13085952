package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed step of one request. Spans of a request share its op
// id as Trace and name their parent; they are kept in memory and written
// out when the run ends.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"` // 0: root
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children are not counted twice.
func selfTime(parent span, children []span) int64 {
	ivs := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := c.Start, c.End
		if s < parent.Start {
			s = parent.Start
		}
		if e > parent.End {
			e = parent.End
		}
		if e > s {
			ivs = append(ivs, [2]int64{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	covered, upTo := int64(0), parent.Start
	for _, iv := range ivs {
		if iv[0] > upTo {
			upTo = iv[0]
		}
		if iv[1] > upTo {
			covered += iv[1] - upTo
			upTo = iv[1]
		}
	}
	return parent.End - parent.Start - covered
}

// requestSpans builds the spans of one request from the client's record
// and the replicas' stamps: client.call (root), leg.request (client send
// → first servant entry), replica.exec per executing replica, leg.reply
// (first servant exit → client receive). ok is false when no replica
// stamped the op.
func requestSpans(c callRec, stamps []stamp, nodes []string) (spans []span, ok bool) {
	var firstEntry, firstExit int64
	for _, st := range stamps {
		if st.entry == 0 || st.exit == 0 {
			continue
		}
		if firstEntry == 0 || st.entry < firstEntry {
			firstEntry = st.entry
		}
		if firstExit == 0 || st.exit < firstExit {
			firstExit = st.exit
		}
	}
	if firstEntry == 0 {
		return nil, false
	}
	spans = append(spans,
		span{Trace: c.op, ID: 1, Name: "client.call", Node: fmt.Sprintf("client%d", c.client), Start: c.send, End: c.recv},
		span{Trace: c.op, ID: 2, Parent: 1, Name: "leg.request", Start: c.send, End: firstEntry})
	id := 3
	for i, st := range stamps {
		if st.entry == 0 || st.exit == 0 {
			continue
		}
		spans = append(spans, span{Trace: c.op, ID: id, Parent: 1, Name: "replica.exec", Node: nodes[i], Start: st.entry, End: st.exit})
		id++
	}
	spans = append(spans, span{Trace: c.op, ID: id, Parent: 1, Name: "leg.reply", Start: firstExit, End: c.recv})
	return spans, true
}

// maxTraceRequests caps how many requests' spans are written to the
// trace file; the metrics are computed over all of them.
const maxTraceRequests = 20000

// traceSummary is what the spans of a traced window reduce to.
type traceSummary struct {
	call, legRequest, legReply, exec, skew, self timing
	spans                                        int
	execs                                        uint64
	requests                                     int
}

// traceWindow builds the spans of every verified request in calls,
// reduces them to timings and writes the first maxTraceRequests
// requests' spans to path as JSON lines.
func traceWindow(e *env, calls []callRec, path string) (traceSummary, error) {
	incs := e.inc.list()
	nodes := make([]string, len(incs))
	for i, s := range incs {
		nodes[i] = fmt.Sprintf("replica%d@%s", i, s.node)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return traceSummary{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return traceSummary{}, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)

	var (
		sum                                     traceSummary
		call, legReq, legRep, exec, skew, selfs []int64
		stamps                                  = make([]stamp, len(incs))
	)
	for _, c := range calls {
		if !c.ok {
			continue
		}
		for i, s := range incs {
			stamps[i] = s.stampOf(c.op)
		}
		spans, ok := requestSpans(c, stamps, nodes)
		if !ok {
			continue
		}
		sum.requests++
		sum.spans += len(spans)
		root := spans[0]
		call = append(call, root.End-root.Start)
		selfs = append(selfs, selfTime(root, spans[1:]))
		var firstEntry, lastEntry int64
		for _, sp := range spans[1:] {
			switch sp.Name {
			case "leg.request":
				legReq = append(legReq, sp.End-sp.Start)
			case "leg.reply":
				legRep = append(legRep, sp.End-sp.Start)
			case "replica.exec":
				sum.execs++
				exec = append(exec, sp.End-sp.Start)
				if firstEntry == 0 || sp.Start < firstEntry {
					firstEntry = sp.Start
				}
				if sp.Start > lastEntry {
					lastEntry = sp.Start
				}
			}
		}
		if len(spans) > 4 { // more than one replica executed
			skew = append(skew, lastEntry-firstEntry)
		}
		if sum.requests <= maxTraceRequests {
			for _, sp := range spans {
				if err := enc.Encode(sp); err != nil {
					_ = f.Close()
					return traceSummary{}, err
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return traceSummary{}, err
	}
	if err := f.Close(); err != nil {
		return traceSummary{}, err
	}
	sum.call, sum.legRequest, sum.legReply = summarize(call), summarize(legReq), summarize(legRep)
	sum.exec, sum.skew, sum.self = summarize(exec), summarize(skew), summarize(selfs)
	return sum, nil
}

// runTraced is the traced run: an untraced reference window, the traced
// window with both wrappers installed and Stats() snapshots around it,
// then the probe ladder. It yields the per-layer metrics.
func (r *runner) runTraced(ms *metricSet) (*driveResult, audit, []string, error) {
	// The run's budget is r.seconds in all: 8/30 for the traced window,
	// 7/30 for the untraced reference, a thirtieth per probe and warm-up.
	// The reference runs half before and half after the traced window, so
	// that a drift in the machine's speed does not read as overhead.
	unit := time.Duration(r.seconds) * time.Second / 30
	probeDur := unit

	refBefore, err := r.referenceWindow(unit, 7*unit/2)
	if err != nil {
		return nil, audit{}, nil, err
	}

	e, setup, m, disturbed, err := r.quietWindow(true, 1, unit, 8*unit)
	if err != nil {
		return nil, audit{}, nil, err
	}
	defer e.close()
	res, before, after, statsBefore, statsAfter := m.res, m.before, m.after, m.statsBefore, m.statsAfter

	path := filepath.Join(r.outDir, fmt.Sprintf("trace-%s.jsonl", r.wl.name))
	tr, err := traceWindow(e, res.primary.calls, path)
	if err != nil {
		return nil, audit{}, nil, fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(r.stdout, "# spans of the first %d requests written to %s\n", min(tr.requests, maxTraceRequests), path)

	// Probes that need the live domain run before it is audited, so the
	// audit covers their operations too.
	invoke, err := r.probeInvoke(e, probeDur)
	if err != nil {
		return nil, audit{}, nil, err
	}
	thinOverhead, err := r.probeThinClient(e, probeDur)
	if err != nil {
		return nil, audit{}, nil, err
	}
	aud, err := r.auditEnv(e)
	if err != nil {
		return nil, audit{}, nil, err
	}

	attempted, failed, _ := res.totals()
	ops := float64(attempted - failed)
	secs := after.at.Sub(before.at).Seconds()
	d := func(a, b uint64) float64 { return float64(a - b) }
	sa, sb := statsAfter, statsBefore

	traced := steady(append([]int64(nil), res.primary.lat...))
	ms.setTiming("trace.lat_p50_us", "", traced, 1e3)
	ms.set("trace.spans", float64(tr.spans))
	ms.set("trace.reconcile_ratio", ratio(tr.legRequest.P50+tr.exec.P50+tr.legReply.P50, tr.call.P50))
	ms.notes["trace.reconcile_ratio"] = "(leg.request + replica.exec + leg.reply) p50 / client.call p50"
	ms.set("trace.client_self_p50_us", tr.self.P50/1e3)

	ms.setTiming("leg.request_p50_us", "leg.request_p99_us", tr.legRequest, 1e3)
	ms.setTiming("leg.reply_p50_us", "leg.reply_p99_us", tr.legReply, 1e3)
	ms.setTiming("replica.exec_p50_us", "", tr.exec, 1e3)
	ms.setTiming("replica.skew_p50_us", "", tr.skew, 1e3)
	ms.set("replica.execs_per_op", ratio(float64(tr.execs), float64(tr.requests)))

	ms.set("core.requests_forwarded_per_op", ratio(d(sa.gw.RequestsForwarded, sb.gw.RequestsForwarded), ops))
	ms.set("core.sheds_per_op", ratio(d(sa.gw.RequestsShed, sb.gw.RequestsShed), ops))
	ms.set("core.cache_answers_per_reissue", ratio(d(sa.gw.AnsweredFromCache, sb.gw.AnsweredFromCache), res.extra["thinclient.reissues"]))
	sheds := d(sa.adm.ShedRate+sa.adm.ShedWindow+sa.adm.ShedDraining, sb.adm.ShedRate+sb.adm.ShedWindow+sb.adm.ShedDraining)
	ms.set("admission.shed_ratio", ratio(sheds, sheds+d(sa.adm.Admitted, sb.adm.Admitted)))

	ms.set("replication.dup_responses_per_op", ratio(d(sa.rm.DuplicateResponses, sb.rm.DuplicateResponses), ops))
	ms.set("replication.early_discard_ratio", ratio(d(sa.rm.ResponsesDiscardedEarly, sb.rm.ResponsesDiscardedEarly), d(sa.rm.DuplicateResponses, sb.rm.DuplicateResponses)))
	ms.set("replication.dup_invocations_per_op", ratio(d(sa.rm.DuplicateInvocations, sb.rm.DuplicateInvocations), ops))
	captures := d(sa.rm.StateSyncs+sa.rm.Checkpoints+sa.rm.CatchupCheckpoints, sb.rm.StateSyncs+sb.rm.Checkpoints+sb.rm.CatchupCheckpoints)
	ms.set("replication.checkpoints_per_kop", ratio(1000*captures, ops))
	ms.set("replication.transfer_entries_replayed", d(sa.rm.TransferEntriesReplayed, sb.rm.TransferEntriesReplayed))
	ms.set("replication.failovers", d(sa.rm.Failovers, sb.rm.Failovers))

	ms.set("thinclient.failovers", res.extra["thinclient.failovers"])
	ms.set("thinclient.reissues", res.extra["thinclient.reissues"])
	ms.set("thinclient.call_overhead_us", thinOverhead)

	ordered := d(sa.totem.LeaderBatches, sb.totem.LeaderBatches)
	if ordered == 0 {
		ordered = d(sa.totem.Broadcast, sb.totem.Broadcast)
	}
	ms.set("totem.datagrams_per_op", ratio(d(sa.totem.Broadcast, sb.totem.Broadcast), ops))
	ms.set("totem.forwards_per_op", ratio(d(sa.totem.Forwarded, sb.totem.Forwarded), ops))
	ms.set("totem.ops_per_batch", ratio(d(sa.delivered, sb.delivered), ordered))
	ms.set("totem.parts_per_pack", ratio(d(sa.totem.PackedParts, sb.totem.PackedParts), d(sa.totem.PackedMsgs, sb.totem.PackedMsgs)))
	ms.set("totem.token_passes_per_op", ratio(d(sa.totem.TokenPasses, sb.totem.TokenPasses), ops))
	ms.set("totem.retransmits_per_kop", ratio(1000*d(sa.totem.Retransmitted, sb.totem.Retransmitted), ops))
	ms.set("totem.demotions", d(sa.totem.Demotions, sb.totem.Demotions))
	ms.set("totem.reconfigs", d(sa.totem.Reconfigs, sb.totem.Reconfigs))

	bcastNs := ratio(d(sa.bcastNs, sb.bcastNs), d(sa.bcastN, sb.bcastN))
	fanoutKB := ratio(d(sa.bcastB, sb.bcastB)*float64(r.wl.nodes)/1024, ops) // payload bytes × recipients
	if r.wl.udp {
		ms.set("udpnet.broadcast_ns", bcastNs)
		ms.set("udpnet.kb_per_op", fanoutKB)
		ms.set("udpnet.datagrams_per_op", ratio(d(sa.udp.TxDatagrams, sb.udp.TxDatagrams), ops))
		ms.set("udpnet.datagrams_per_flush", ratio(d(sa.udp.TxDatagrams, sb.udp.TxDatagrams), d(sa.udp.TxBatches, sb.udp.TxBatches)))
		ms.set("udpnet.rx_datagrams_per_batch", ratio(d(sa.udp.RxDatagrams, sb.udp.RxDatagrams), d(sa.udp.RxBatches, sb.udp.RxBatches)))
		ms.set("udpnet.drops", d(sa.udp.TxQueueDrops+sa.udp.RxInboxDrops, sb.udp.TxQueueDrops+sb.udp.RxInboxDrops))
	} else {
		ms.set("memnet.broadcast_ns", bcastNs)
		ms.set("memnet.kb_per_op", fanoutKB)
		ms.set("memnet.datagrams_per_op", ratio(d(sa.net.Sent, sb.net.Sent), ops))
		ms.set("memnet.overflow_drops", d(sa.net.Overflow, sb.net.Overflow))
	}

	ms.set("domain.new_s", setup.domainNew)
	ms.set("ftmgmt.deploy_s", setup.deploy)
	ms.set("core.add_gateway_s", setup.addGateway)
	ms.set("totem.promote_s", setup.promote)

	cpu := (after.user - before.user) + (after.sys - before.sys)
	ms.set("go.gc_cycles_per_s", ratio(float64(after.gcCycles-before.gcCycles), secs))
	ms.set("go.gc_pause_ms_per_s", ratio(float64(after.gcPause-before.gcPause)/1e6, secs))
	ms.set("go.cpu_sys_share", ratio(float64(after.sys-before.sys), float64(cpu)))
	ms.set("go.goroutines_peak", float64(m.goroutines))

	late, inflight := timing{}, 0
	for _, p := range res.phases {
		if t := steady(append([]int64(nil), p.late...)); t.Tail > late.Tail {
			late = t
		}
		if p.inflight > inflight {
			inflight = p.inflight
		}
	}
	ms.setTiming("", "gen.late_p99_us", late, 1e3)
	ms.set("gen.inflight_peak", float64(inflight))

	e.close()
	refAfter, err := r.referenceWindow(unit, 7*unit/2)
	if err != nil {
		return nil, audit{}, nil, err
	}
	refP50 := (refBefore.P50 + refAfter.P50) / 2
	ms.set("trace.overhead_ratio", ratio(traced.P50, refP50))
	ms.notes["trace.overhead_ratio"] = fmt.Sprintf("traced p50 %.1f us / untraced p50 %.1f us before, %.1f us after", traced.P50/1e3, refBefore.P50/1e3, refAfter.P50/1e3)

	// The probe ladder: each layer's public API driven alone.
	if err := r.probeLadder(ms, probeDur); err != nil {
		return nil, audit{}, nil, err
	}
	ms.setTiming("replication.invoke_p50_us", "", invoke, 1e3)
	ms.set("core.edge_us", traced.P50/1e3-invoke.P50/1e3)
	ms.set("replication.self_us", invoke.P50/1e3-2*ms.values["totem.deliver_p50_us"]-tr.exec.P50/1e3)
	for _, def := range perLayer {
		if _, ok := ms.values[def.name]; !ok {
			ms.set(def.name, 0) // a layer this workload does not use
		}
	}
	return res, aud, disturbed, nil
}

// referenceWindow measures the workload's lat_p50 on an untraced domain
// in this same process, the denominator of trace.overhead_ratio.
func (r *runner) referenceWindow(warm, window time.Duration) (timing, error) {
	e, _, err := r.standUp(false, 1)
	if err != nil {
		return timing{}, err
	}
	defer e.close()
	if err := r.warmUp(e, warm); err != nil {
		return timing{}, err
	}
	res, err := r.wl.drive(r, e, window)
	if err != nil {
		return timing{}, err
	}
	return steady(res.primary.lat), nil
}
