package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Violation is one invariant breach found by the checkers. Invariant
// names are stable strings (used by tests and the simrun driver to
// classify failures); Detail carries enough context to locate the
// breach in the trace dump.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Invariant names reported by Check.
const (
	InvExactlyOnce  = "exactly-once"
	InvSeqAgreement = "seq-agreement"
	InvTotalOrder   = "total-order"
	InvConvergence  = "convergence"
	InvCompletion   = "completion"
	InvViewAgree    = "view-agreement"
	InvConservation = "conservation"
)

// CheckOpts parameterizes Check for the workload that produced the
// trace. The liveness check (completion) always applies: schedules
// force-heal every fault well before the virtual deadline,
// so a run that still has unfinished operations at the end has lost an
// admitted request, which is precisely the breach the paper's gateway
// records exist to prevent.
type CheckOpts struct {
	// Bank enables the conservation-of-money check with the given
	// initial total across all accounts in all domains.
	Bank        bool
	BankInitial uint64
}

// execKey identifies one operation within one group.
type execKey struct {
	Dom   int
	Group int
	Op    OpKey
}

// Check audits a recorded trace against the paper's invariants and
// returns every violation found (empty means the run passed). It is
// pure: callers may re-run it on dumped traces.
func Check(events []Event, opts CheckOpts) []Violation {
	var out []Violation

	// --- exactly-once and sequence agreement over exec events ---
	// A restart wipes a replica's volatile state, and recovery replays
	// the adopted log — so exactly-once holds per node *incarnation*
	// (the restart event bounds them), while sequence agreement holds
	// globally across incarnations: replay must land every op at the
	// seq the original execution assigned.
	type perNode struct {
		node int
		inc  int
		seq  uint64
	}
	execs := make(map[execKey][]perNode)
	incarnation := make(map[[2]int]int)
	perNodeSeqs := make(map[[3]int][]uint64) // (dom,node,inc) -> seqs in exec order
	var keys []execKey
	for _, e := range events {
		nk := [2]int{e.Dom, e.Node}
		if e.Kind == EvRestart {
			incarnation[nk]++
			continue
		}
		if e.Kind != EvExec {
			continue
		}
		k := execKey{Dom: e.Dom, Group: e.Group, Op: e.Op}
		if len(execs[k]) == 0 {
			keys = append(keys, k)
		}
		inc := incarnation[nk]
		execs[k] = append(execs[k], perNode{node: e.Node, inc: inc, seq: e.Seq})
		perNodeSeqs[[3]int{e.Dom, e.Node, inc}] = append(perNodeSeqs[[3]int{e.Dom, e.Node, inc}], e.Seq)
	}
	for _, k := range keys {
		seen := make(map[[2]int]int) // (node, incarnation) -> exec count
		for _, pn := range execs[k] {
			seen[[2]int{pn.node, pn.inc}]++
		}
		var incs [][2]int
		for ni := range seen {
			incs = append(incs, ni)
		}
		sort.Slice(incs, func(i, j int) bool {
			if incs[i][0] != incs[j][0] {
				return incs[i][0] < incs[j][0]
			}
			return incs[i][1] < incs[j][1]
		})
		for _, ni := range incs {
			if seen[ni] > 1 {
				out = append(out, Violation{InvExactlyOnce, fmt.Sprintf(
					"op %s executed %d times on d%d/n%d/g%d", k.Op, seen[ni], k.Dom, ni[0], k.Group)})
			}
		}
		first := execs[k][0].seq
		for _, pn := range execs[k][1:] {
			if pn.seq != first {
				out = append(out, Violation{InvSeqAgreement, fmt.Sprintf(
					"op %s executed at seq %d on d%d/n%d but seq %d elsewhere (g%d)",
					k.Op, pn.seq, k.Dom, pn.node, first, k.Group)})
				break
			}
		}
	}

	// --- total order: each replica incarnation's execution stream must
	// be strictly increasing in the agreed global sequence. Together
	// with sequence agreement this implies a single total order across
	// surviving replicas: any pairwise inversion would force a decrease
	// at one of the two nodes. ---
	var nodeKeys [][3]int
	for nk := range perNodeSeqs {
		nodeKeys = append(nodeKeys, nk)
	}
	sort.Slice(nodeKeys, func(i, j int) bool {
		for x := 0; x < 3; x++ {
			if nodeKeys[i][x] != nodeKeys[j][x] {
				return nodeKeys[i][x] < nodeKeys[j][x]
			}
		}
		return false
	})
	for _, nk := range nodeKeys {
		seqs := perNodeSeqs[nk]
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				out = append(out, Violation{InvTotalOrder, fmt.Sprintf(
					"d%d/n%d executed seq %d after seq %d", nk[0], nk[1], seqs[i], seqs[i-1])})
				break
			}
		}
	}

	// --- completion: every issued operation must complete. This is the
	// "no lost admitted requests" audit: an op a gateway admitted but
	// never answered keeps its client retrying past the deadline. ---
	issued := make(map[execKey]bool)
	replied := make(map[execKey]bool)
	var issueOrder []execKey
	for _, e := range events {
		k := execKey{Dom: e.Dom, Group: e.Group, Op: e.Op}
		switch e.Kind {
		case EvIssue:
			if !issued[k] {
				issued[k] = true
				issueOrder = append(issueOrder, k)
			}
		case EvReplyOK:
			replied[k] = true
		}
	}
	for _, k := range issueOrder {
		if !replied[k] {
			out = append(out, Violation{InvCompletion, fmt.Sprintf(
				"op %s (d%d/g%d) issued but never completed", k.Op, k.Dom, k.Group)})
		}
	}

	// --- convergence: at end of run, every surviving replica of a group
	// must hold the identical state hash (order-sensitive, so a replica
	// that executed the same multiset in a different order diverges). ---
	finals := make(map[[2]int]map[int]uint64) // (dom,group) -> node -> hash
	var finalKeys [][2]int
	for _, e := range events {
		if e.Kind != EvFinalState {
			continue
		}
		gk := [2]int{e.Dom, e.Group}
		if finals[gk] == nil {
			finals[gk] = make(map[int]uint64)
			finalKeys = append(finalKeys, gk)
		}
		finals[gk][e.Node] = e.Hash
	}
	sort.Slice(finalKeys, func(i, j int) bool {
		if finalKeys[i][0] != finalKeys[j][0] {
			return finalKeys[i][0] < finalKeys[j][0]
		}
		return finalKeys[i][1] < finalKeys[j][1]
	})
	for _, gk := range finalKeys {
		byNode := finals[gk]
		var nodes []int
		for n := range byNode {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		for _, n := range nodes[1:] {
			if byNode[n] != byNode[nodes[0]] {
				out = append(out, Violation{InvConvergence, fmt.Sprintf(
					"d%d/g%d: n%d state %016x != n%d state %016x",
					gk[0], gk[1], n, byNode[n], nodes[0], byNode[nodes[0]])})
			}
		}
	}

	// --- view agreement: every member that installed a given ring must
	// agree on its membership; only primary rings matter (minority
	// fragments may gather transient views while partitioned). A ring is
	// named by its id and its lowest member, as totem names it: both
	// sides of a partition count ring ids up in lockstep, and two rings
	// under one id that share no member are two rings. ---
	views := make(map[string]map[int]string) // "d<dom>/<ringid>/<lowest>" -> node -> member note
	var viewKeys []string
	for _, e := range events {
		if e.Kind != EvRing || !e.Quorum {
			continue
		}
		id, members := splitRingNote(e.Note)
		lowest, _, _ := strings.Cut(strings.Trim(members, "[]"), " ")
		vk := fmt.Sprintf("d%d/%s/%s", e.Dom, id, lowest)
		if views[vk] == nil {
			views[vk] = make(map[int]string)
			viewKeys = append(viewKeys, vk)
		}
		views[vk][e.Node] = members
	}
	sort.Strings(viewKeys)
	for _, vk := range viewKeys {
		byNode := views[vk]
		var nodes []int
		for n := range byNode {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		for _, n := range nodes[1:] {
			if byNode[n] != byNode[nodes[0]] {
				out = append(out, Violation{InvViewAgree, fmt.Sprintf(
					"ring %s: n%d installed members %s but n%d installed %s",
					vk, n, byNode[n], nodes[0], byNode[nodes[0]])})
			}
		}
	}

	// --- bank: conservation of money. Each bank replica reports its
	// domain's balance total in the Val of its final_state event; the
	// grand total across one representative replica per (dom,group) must
	// equal the initial funding. A duplicated bridge credit inflates it;
	// a lost one deflates it. ---
	if opts.Bank {
		var total uint64
		for _, gk := range finalKeys {
			byNode := finals[gk]
			var nodes []int
			for n := range byNode {
				nodes = append(nodes, n)
			}
			sort.Ints(nodes)
			if len(nodes) == 0 {
				continue
			}
			// Val is recorded alongside Hash; find it from the events.
			for _, e := range events {
				if e.Kind == EvFinalState && e.Dom == gk[0] && e.Group == gk[1] && e.Node == nodes[0] {
					total += e.Val
					break
				}
			}
		}
		if total != opts.BankInitial {
			out = append(out, Violation{InvConservation, fmt.Sprintf(
				"total balance %d != initial funding %d", total, opts.BankInitial)})
		}
	}

	return out
}

// splitRingNote splits a ring event note "r<id>[members]" into the ring
// id and the member list.
func splitRingNote(note string) (id, members string) {
	for i := 0; i < len(note); i++ {
		if note[i] == '[' {
			return note[:i], note[i:]
		}
	}
	return note, ""
}
