// Package sim is the repository's deterministic simulation harness: a
// FoundationDB-style seeded simulator that runs a full multi-group fault
// tolerance domain — replicas, gateways, thin clients, and for the bank
// workload a second domain bridged through its gateways — on a virtual
// clock over memnet, with every source of nondeterminism (event
// interleaving, fault schedule, ordering mode, client workload,
// topology, payloads) derived from a single uint64 seed.
//
// A schedule generator composes faultinject primitives into adversarial
// scripts (partition the ring mid-invocation, kill the processor that
// orders and then the next commit's creator, crash a gateway during
// reply delivery, partition-then-merge during a view change, loss
// storms), and after every run a checker library audits the paper's
// invariants from the recorded trace: a single total order across
// surviving replicas, exactly-once execution per operation identifier,
// duplicate suppression on reissue, no lost admitted requests, and view
// agreement. Failing seeds replay byte-for-byte: the trace of a run is a
// pure function of its configuration.
//
// The order is the shipping protocol's: every simulated processor steps
// a real totem.Core, in ring or leader mode as the seed draws, on the
// virtual clock. Above it the sim models the paper's replicas (which
// execute in the rings their core calls primary, up to the core's
// stability horizon, and recover by adopting a snapshot asked for in the
// order), gateway record stores keyed by the paper's operation
// identifiers, bridges and fan-out — small enough to run thousands of
// seeded schedules in minutes, faithful enough that disabling a real
// guard (replica dedup, the snapshot adoption) makes the checkers find a
// violating seed within a CI-sized budget.
package sim

import (
	"math/rand"
	"sort"
	"time"

	"eternalgw/internal/faultinject"
	"eternalgw/internal/memnet"
	"eternalgw/internal/totem"
	"eternalgw/internal/vclock"
)

const (
	baseLoss   = 0.005
	baseDup    = 0.005
	healAfter  = 600 * time.Millisecond
	settleWait = 20 * time.Millisecond
	pollEvery  = 4 * time.Millisecond
)

// Mutations are the checker teeth: each knob disables one safety
// mechanism the paper's design depends on, and the acceptance gate for
// the whole harness is that the checkers then find a violating seed
// quickly. A harness that stays green with these on is not checking
// anything.
type Mutations struct {
	// DisableDedup turns off replica-side duplicate detection, so a
	// reissued or doubly-admitted operation executes twice.
	DisableDedup bool
	// DisableMembershipSync skips the adoption of the snapshot a node
	// that does not continue its ring's history asked for, so merging and
	// recovering nodes keep stale state.
	DisableMembershipSync bool
}

// Config parameterizes one simulated run. Everything nondeterministic
// about the run derives from Seed; two runs with equal Configs produce
// byte-for-byte identical traces.
type Config struct {
	Seed uint64
	// Schedule pins a fault class (see Schedules); empty draws one from
	// the seed's schedule stream.
	Schedule string
	// Workload picks the scenario (see Workloads); empty means counter.
	Workload string
	// Mutations disable safety mechanisms to validate the checkers.
	Mutations Mutations
	// Metrics, when non-nil, receives run counters.
	Metrics *Metrics
}

// maxVirtual bounds a run in virtual time; hitting it is reported as a
// liveness failure by the completion checker.
const maxVirtual = 5 * time.Second

// RunStats summarizes one run.
type RunStats struct {
	Events     int
	VirtualMS  int64
	Execs      uint64
	Dedups     uint64
	DupResps   uint64
	Reissues   uint64
	RecordHits uint64
	Faults     uint64
	Rings      uint64
}

// Result is the outcome of one simulated run.
type Result struct {
	Seed     uint64
	Schedule string
	Workload string
	// Ordering is the totem ordering mode the seed drew: "ring" or
	// "leader".
	Ordering   string
	Planned    []faultinject.FiredStep
	Fired      []faultinject.FiredStep
	Violations []Violation
	Trace      *Trace
	TraceHash  uint64
	Stats      RunStats
	// Reason is "completed" or "deadline".
	Reason string
}

// domainSim is one domain's runtime topology.
type domainSim struct {
	idx      int
	size     int
	quorum   int // the most processors the schedule may take down or cut off is size-quorum
	groups   int
	gateways []int
	gwSet    map[int]bool
	nodes    []*node
	ids      []memnet.NodeID // the nodes' ids, every core's configured membership
	appFn    func(group int) App

	// lastOrderer is the node whose ring datagram last had a member
	// deliver something: the token holder while the token rotates, the
	// sequencer in a leader epoch.
	lastOrderer int
}

func (d *domainSim) isGateway(i int) bool { return d.gwSet[i] }

func (d *domainSim) newApps() map[int]App {
	m := make(map[int]App, d.groups)
	for g := 0; g < d.groups; g++ {
		m[g] = d.appFn(g)
	}
	return m
}

type world struct {
	cfg      Config
	spec     *workloadSpec
	clock    *vclock.Clock
	net      *memnet.Network
	ordering totem.OrderingMode
	msgs     []*msg   // unicast messages, by handle
	entries  []*entry // what the rings order, by handle
	asks     uint64   // ask ids handed out

	doms        []*domainSim
	clients     []*client
	subscribers []*subscriber

	nodes    map[memnet.NodeID]*node // every protocol node, by id
	order    []memnet.NodeID
	eps      map[memnet.NodeID]*memnet.Endpoint
	handlers map[memnet.NodeID]func(memnet.Packet)

	plan      *faultinject.Plan
	schedName string

	trace *Trace
	stats RunStats

	workers         int
	partitionActive bool
	stormActive     bool
	healed          bool // the forced heal has lifted every fault for good
	settlePending   bool
	done            bool
	reason          string
}

// Run executes one simulated run and returns its audited result.
func Run(cfg Config) *Result {
	w := newWorld(cfg)
	w.boot()
	for !w.done {
		if !w.clock.Step() {
			w.finalize("stalled")
			break
		}
		w.drain()
	}
	return w.result()
}

func newWorld(cfg Config) *world {
	w := &world{
		cfg:      cfg,
		spec:     specFor(cfg.Workload),
		clock:    vclock.New(),
		trace:    NewTrace(),
		nodes:    make(map[memnet.NodeID]*node),
		eps:      make(map[memnet.NodeID]*memnet.Endpoint),
		handlers: make(map[memnet.NodeID]func(memnet.Packet)),
	}
	w.net = memnet.New(
		memnet.WithSeed(int64(faultinject.Split(cfg.Seed, 1))),
		memnet.WithClock(w.clock),
		memnet.WithMaxDelay(linkMaxDelay),
		memnet.WithLoss(baseLoss),
		memnet.WithDuplication(baseDup),
	)
	return w
}

func (w *world) attach(id memnet.NodeID, h func(memnet.Packet)) *memnet.Endpoint {
	ep, err := w.net.Attach(id)
	if err != nil {
		panic(err) // topology ids are unique by construction
	}
	w.eps[id] = ep
	w.handlers[id] = h
	w.order = append(w.order, id)
	return ep
}

func (w *world) boot() {
	// The schedule stream draws the ordering mode, then the class.
	schedRng := rand.New(rand.NewSource(int64(faultinject.Split(w.cfg.Seed, 3))))
	if schedRng.Intn(2) == 1 {
		w.ordering = totem.OrderingLeader
	}
	w.schedName = w.cfg.Schedule
	if w.schedName == "" {
		names := Schedules()
		w.schedName = names[schedRng.Intn(len(names))]
	}

	// Topology.
	for di, ds := range w.spec.doms {
		d := &domainSim{idx: di, size: ds.size, quorum: ds.size/2 + 1, groups: ds.groups, appFn: ds.app, gwSet: make(map[int]bool)}
		for g := ds.size - ds.gateways; g < ds.size; g++ {
			d.gateways = append(d.gateways, g)
			d.gwSet[g] = true
		}
		for i := 0; i < ds.size; i++ {
			n := &node{w: w, dom: di, idx: i, id: nodeName(di, i), isGW: d.gwSet[i]}
			n.ep = w.attach(n.id, n.handle)
			w.nodes[n.id] = n
			d.nodes = append(d.nodes, n)
			d.ids = append(d.ids, n.id)
		}
		w.doms = append(w.doms, d)
	}
	for _, d := range w.doms {
		for _, n := range d.nodes {
			n.boot()
		}
	}

	gw0 := make([]memnet.NodeID, 0, len(w.doms[0].gateways))
	for _, g := range w.doms[0].gateways {
		gw0 = append(gw0, nodeName(0, g))
	}

	// Clients (all attached to domain 0's gateways; bridge traffic is
	// how other domains get work).
	for i := 0; i < w.spec.clients; i++ {
		c := &client{
			w: w, dom: 0, idx: i, id: uint64(i + 1), nid: clientName(i),
			gws: gw0, total: w.spec.opsPerClient, nextOp: w.spec.nextOp,
			rng: rand.New(rand.NewSource(int64(faultinject.Split(w.cfg.Seed, 100+uint64(i))))),
		}
		c.ep = w.attach(c.nid, func(pkt memnet.Packet) { c.handle(w.msg(pkt)) })
		w.clients = append(w.clients, c)
	}
	for i := 0; i < w.spec.subscribers; i++ {
		s := &subscriber{w: w, dom: 0, idx: i, nid: subscriberName(i), gws: gw0, total: w.spec.fanoutItems}
		s.ep = w.attach(s.nid, func(pkt memnet.Packet) { s.handle(w.msg(pkt)) })
		w.subscribers = append(w.subscribers, s)
	}
	w.workers = len(w.clients) + len(w.subscribers)

	w.plan = faultinject.Generate(schedRng, w.buildSchedule(w.schedName, schedRng)...)

	// Start the workload; the cores form their rings meanwhile.
	w.clock.AfterFunc(0, func() {
		for _, c := range w.clients {
			c.start()
		}
		for _, s := range w.subscribers {
			s.start()
		}
	})
	if w.schedName != SchedCalm {
		w.clock.AfterFunc(healAfter, w.forceHeal)
	}
	w.clock.AfterFunc(maxVirtual, func() {
		if !w.done {
			w.finalize("deadline")
		}
	})
}

// now is the virtual clock as the cores are told it.
func (w *world) now() time.Time { return time.Unix(0, w.clock.Now()) }

// send appends m to the world's message table and transmits its handle
// as a real memnet datagram, so loss, duplication, delay, partitions
// and crashes all apply to it.
func (w *world) send(ep *memnet.Endpoint, to memnet.NodeID, m *msg) {
	idx := len(w.msgs)
	w.msgs = append(w.msgs, m)
	_ = ep.Send(to, handle(idx)) // a crashed sender's error is the drop itself
}

// msg is the unicast message a datagram's handle names, nil if none.
func (w *world) msg(pkt memnet.Packet) *msg {
	if idx := handleIndex(pkt.Payload); idx >= 0 && idx < len(w.msgs) {
		return w.msgs[idx]
	}
	return nil
}

// drain processes every queued inbox packet, in sorted endpoint order,
// until the network is quiet. Handlers may send more (including
// zero-delay deliveries), hence the outer loop.
func (w *world) drain() {
	for {
		progress := false
		for _, id := range w.order {
			ep := w.eps[id]
			h := w.handlers[id]
			for {
				var pkt memnet.Packet
				select {
				case pkt = <-ep.Recv():
				default:
					pkt.Payload = nil
				}
				if pkt.Payload == nil {
					break
				}
				progress = true
				if !w.done {
					h(pkt)
				}
			}
		}
		if !progress {
			return
		}
	}
}

// record appends one trace event and updates the run counters.
func (w *world) record(e Event) {
	w.trace.Add(e)
	w.stats.Events++
	switch e.Kind {
	case EvExec:
		w.stats.Execs++
	case EvDedup:
		w.stats.Dedups++
	case EvDupResp:
		w.stats.DupResps++
	case EvReissue:
		w.stats.Reissues++
	case EvRecordHit:
		w.stats.RecordHits++
	case EvFault:
		w.stats.Faults++
	}
}

// opCompleted drives the fault plan: schedule triggers are operation
// counts, so fault timing is reproducible regardless of how fast the
// virtual run proceeds. The forced heal ends the plan: a fault injected
// after it would make liveness unfair to check.
func (w *world) opCompleted() {
	if !w.healed {
		w.plan.Tick()
	}
}

// workerDone is called by each client/subscriber when its workload is
// exhausted; when all are done the world starts polling for
// quiescence.
func (w *world) workerDone() {
	w.workers--
	if w.workers == 0 && !w.settlePending {
		w.settlePending = true
		w.clock.AfterFunc(settleWait, w.quiescePoll)
	}
}

func (w *world) quiescePoll() {
	if w.done {
		return
	}
	if w.quiesced() {
		w.finalize("completed")
		return
	}
	w.clock.AfterFunc(pollEvery, w.quiescePoll)
}

// quiesced reports whether the whole system has converged: no fault in
// force, every domain one full ring that holds its history everywhere,
// every delivered entry executed, the same last delivery at every node,
// every bridge op acknowledged, and no gateway owing anyone an answer.
func (w *world) quiesced() bool {
	if w.partitionActive {
		return false
	}
	for _, d := range w.doms {
		if w.crashedCount(d.idx) > 0 {
			return false
		}
		ref := d.nodes[0]
		if len(ref.members) != d.size {
			return false
		}
		for _, n := range d.nodes {
			if n.ring != ref.ring || n.awaiting || len(n.log) > 0 || n.last != ref.last {
				return false
			}
			for k := range n.outbox {
				if !n.acked[k] {
					return false
				}
			}
			for _, rec := range n.records {
				if rec.interested && !rec.replied {
					return false
				}
			}
		}
	}
	return true
}

// finalize records each surviving replica's final state, closes the
// trace and stops the run.
func (w *world) finalize(reason string) {
	for _, d := range w.doms {
		for _, n := range d.nodes {
			if n.crashed {
				continue
			}
			groups := make([]int, 0, len(n.apps))
			for g := range n.apps {
				groups = append(groups, g)
			}
			sort.Ints(groups)
			for _, g := range groups {
				n.trace(Event{Kind: EvFinalState, Group: g, Hash: n.apps[g].Hash(), Val: n.apps[g].Total()})
			}
		}
	}
	w.record(Event{T: w.clock.Now(), Kind: EvEnd, Dom: -1, Node: -1, Group: -1, Note: reason})
	w.reason = reason
	w.done = true
}

func (w *world) result() *Result {
	w.stats.VirtualMS = w.clock.Now() / int64(time.Millisecond)
	res := &Result{
		Seed:      w.cfg.Seed,
		Schedule:  w.schedName,
		Workload:  w.spec.name,
		Ordering:  "ring",
		Planned:   w.plan.Steps(),
		Fired:     w.plan.FiredAt(),
		Trace:     w.trace,
		TraceHash: w.trace.Hash(),
		Stats:     w.stats,
		Reason:    w.reason,
	}
	if w.ordering == totem.OrderingLeader {
		res.Ordering = "leader"
	}
	res.Violations = Check(w.trace.Events(), w.spec.checkOpts())
	if m := w.cfg.Metrics; m != nil {
		m.observe(res)
	}
	return res
}
