package sim

import (
	"fmt"
	"math/rand"

	"eternalgw/internal/faultinject"
	"eternalgw/internal/memnet"
)

// Schedule class names accepted by Config.Schedule. Empty picks one by
// seed. Each class is an adversarial script aimed at a specific paper
// mechanism: partitions mid-invocation at the stability rule, killing
// the processor that orders and then the next commit's creator at
// totem's membership protocol, crashing gateways at the record store,
// rapid partition/merge at view agreement, and loss storms at every
// retransmission path.
const (
	SchedCalm           = "calm"
	SchedPartition      = "partition-invoke"
	SchedKillHolder     = "kill-token-holder"
	SchedGatewayCrash   = "gateway-crash-reply"
	SchedPartitionMerge = "partition-merge-view"
	SchedStorm          = "storm"
)

// Schedules lists the schedule class names.
func Schedules() []string {
	return []string{SchedCalm, SchedPartition, SchedKillHolder, SchedGatewayCrash, SchedPartitionMerge, SchedStorm}
}

const stormLoss = 0.25

// minorityCut draws a random minority subset of domain 0's protocol
// nodes: never large enough to take the quorum side below a majority,
// always at least one node.
func (w *world) minorityCut(rng *rand.Rand) []memnet.NodeID {
	d := w.doms[0]
	maxCut := d.size - d.quorum
	if maxCut < 1 {
		maxCut = 1
	}
	k := 1 + rng.Intn(maxCut)
	perm := rng.Perm(d.size)
	ids := make([]memnet.NodeID, 0, k)
	for _, i := range perm[:k] {
		ids = append(ids, nodeName(0, i))
	}
	return ids
}

// buildSchedule draws the concrete fault plan for the chosen class.
// All randomness comes from the schedule stream, so pinning a class
// changes nothing about the network or workload draws.
func (w *world) buildSchedule(class string, rng *rand.Rand) []faultinject.StepSpec {
	tot := uint64(w.spec.clients * w.spec.opsPerClient)
	if tot < 8 {
		tot = 8
	}
	switch class {
	case SchedCalm:
		return nil
	case SchedPartition:
		cut := w.minorityCut(rng)
		return []faultinject.StepSpec{
			{Name: "partition", MinOp: tot / 8, MaxOp: tot / 3, Action: func() { w.doPartition(cut) }},
			{Name: "heal", MinOp: tot / 2, MaxOp: 3 * tot / 4, Action: w.doHeal},
		}
	case SchedKillHolder:
		// The holder is whoever ordered last; the creator is the lowest
		// member of its ring still up, which sends the next commit round.
		holder := -1
		return []faultinject.StepSpec{
			{Name: "kill-holder", MinOp: tot / 8, MaxOp: tot / 3, Action: func() {
				holder = w.doms[0].lastOrderer
				w.doCrash(0, holder, "holder")
			}},
			{Name: "kill-creator", MinOp: tot / 3, MaxOp: tot / 2, Action: func() {
				if holder < 0 {
					return
				}
				for _, m := range w.doms[0].nodes[holder].members {
					if !w.doms[0].nodes[m].crashed {
						w.doCrash(0, m, "creator")
						return
					}
				}
			}},
			{Name: "restart-all", MinOp: tot / 2, MaxOp: 2 * tot / 3, Action: w.doRestartAll},
		}
	case SchedGatewayCrash:
		d := w.doms[0]
		gw := d.gateways[rng.Intn(len(d.gateways))]
		return []faultinject.StepSpec{
			{Name: "crash-gateway", MinOp: tot / 8, MaxOp: tot / 2, Action: func() { w.doCrash(0, gw, "gateway") }},
			{Name: "restart-all", MinOp: tot / 2, MaxOp: 3 * tot / 4, Action: w.doRestartAll},
		}
	case SchedPartitionMerge:
		cut1 := w.minorityCut(rng)
		cut2 := w.minorityCut(rng)
		return []faultinject.StepSpec{
			{Name: "partition-a", MinOp: tot / 10, MaxOp: tot / 4, Action: func() { w.doPartition(cut1) }},
			{Name: "heal-a", MinOp: tot / 4, MaxOp: tot / 3, Action: w.doHeal},
			{Name: "partition-b", MinOp: tot / 3, MaxOp: tot / 2, Action: func() { w.doPartition(cut2) }},
			{Name: "heal-b", MinOp: tot / 2, MaxOp: 2 * tot / 3, Action: w.doHeal},
		}
	case SchedStorm:
		loss := stormLoss + rng.Float64()*0.15
		return []faultinject.StepSpec{
			{Name: "storm-on", MinOp: 2, MaxOp: tot / 4, Action: func() { w.doStorm(loss) }},
			{Name: "storm-off", MinOp: tot / 2, MaxOp: 3 * tot / 4, Action: w.doCalmLoss},
		}
	}
	return nil
}

// ---- fault actions ----

func (w *world) faultEvent(note string) {
	w.record(Event{T: w.clock.Now(), Kind: EvFault, Dom: -1, Node: -1, Group: -1, Note: note})
}

func (w *world) doPartition(cut []memnet.NodeID) {
	w.net.Partition(cut)
	w.partitionActive = true
	w.faultEvent(fmt.Sprintf("partition%v", cut))
}

func (w *world) doHeal() {
	w.net.Heal()
	w.partitionActive = false
	w.faultEvent("heal")
}

// doCrash fails a protocol node, respecting the quorum cap: the
// schedule never takes more nodes down at once than the domain can
// lose while keeping a majority.
func (w *world) doCrash(dom, idx int, why string) {
	d := w.doms[dom]
	if idx < 0 || idx >= d.size {
		return
	}
	n := d.nodes[idx]
	if n.crashed {
		return
	}
	if w.crashedCount(dom)+1 > d.size-d.quorum {
		w.faultEvent(fmt.Sprintf("crash-skipped-cap:d%d.n%d", dom, idx))
		return
	}
	n.crash()
	w.faultEvent(fmt.Sprintf("crash:%s:d%d.n%d", why, dom, idx))
}

func (w *world) crashedCount(dom int) int {
	c := 0
	for _, n := range w.doms[dom].nodes {
		if n.crashed {
			c++
		}
	}
	return c
}

func (w *world) doRestartAll() {
	for _, d := range w.doms {
		for _, n := range d.nodes {
			if n.crashed {
				n.restart()
				w.faultEvent(fmt.Sprintf("restart:d%d.n%d", d.idx, n.idx))
			}
		}
	}
}

func (w *world) doStorm(loss float64) {
	w.net.SetLoss(loss)
	w.stormActive = true
	w.faultEvent(fmt.Sprintf("storm:%.2f", loss))
}

func (w *world) doCalmLoss() {
	w.net.SetLoss(baseLoss)
	w.stormActive = false
	w.faultEvent("storm-off")
}

// forceHeal is the time-triggered backstop: whatever the op-triggered
// plan did (or never got to do because the fault it injected stalled
// the workload that drives it), at a fixed virtual time every fault is
// lifted, and the plan fires nothing more, so liveness is a fair thing
// to check.
func (w *world) forceHeal() {
	if w.done {
		return
	}
	w.net.Heal()
	w.partitionActive = false
	w.net.SetLoss(baseLoss)
	w.stormActive = false
	w.doRestartAll()
	w.healed = true
	w.faultEvent("forced-heal")
}
