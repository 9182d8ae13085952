package replication

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/fifo"
	"eternalgw/internal/giop"
	"eternalgw/internal/logrec"
	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
	"eternalgw/internal/orb"
)

// taskKind enumerates replica executor work items.
type taskKind uint8

const (
	taskInvoke taskKind = iota + 1
	taskCaptureState
	taskApplyState
	taskApplySync
	taskFailover
)

// task is one unit of work, created by the event loop at a specific
// point in the total order and executed asynchronously in that order.
type task struct {
	kind taskKind
	// msg's payload may alias the delivery buffer; the executor decodes
	// or copies it, never retains it.
	msg Message
	// raw is the full encoded wire form of an invocation delivery
	// (header plus payload), aliasing the delivery buffer; backups copy
	// it into the replay log instead of re-encoding msg.
	raw     []byte
	ts      uint64
	execute bool
	logInv  bool
	state   statePayload
	joiner  memnet.NodeID
}

// detach returns a copy of the task whose msg payload and raw bytes no
// longer alias the delivery buffer, safe to retain indefinitely. Tasks
// that merely flow through the queue are consumed promptly and skip
// this copy; anything buffered past the delivery cycle (the holdback
// list) must detach first — the arenaalias analyzer enforces it.
func (t task) detach() task {
	t.msg.Payload = append([]byte(nil), t.msg.Payload...)
	t.raw = append([]byte(nil), t.raw...)
	return t
}

// taskQueue is an unbounded FIFO. The event loop must never block on a
// replica whose application is slow (or blocked in a nested invocation),
// so pushes always succeed.
//
// gwlint:arena-carrier — queued tasks may alias the delivery buffer;
// the consumer decodes or copies each task promptly and never retains
// one past its turn (holdback buffering detaches first).
type taskQueue struct {
	mu     sync.Mutex
	items  []task
	signal chan struct{}
	closed bool
}

func newTaskQueue() *taskQueue {
	return &taskQueue{signal: make(chan struct{}, 1)}
}

func (q *taskQueue) push(t task) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, t)
	q.mu.Unlock()
	select {
	case q.signal <- struct{}{}:
	default:
	}
}

// pop blocks until a task is available or the queue is closed.
func (q *taskQueue) pop() (task, bool) {
	for {
		q.mu.Lock()
		if len(q.items) > 0 {
			t := q.items[0]
			q.items = q.items[1:]
			q.mu.Unlock()
			return t, true
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return task{}, false
		}
		<-q.signal
	}
}

func (q *taskQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	select {
	case q.signal <- struct{}{}:
	default:
	}
}

// replica is this node's runtime for one group membership: the hosted
// application (nil for client-only members such as gateways) plus the
// executor state. Fields below the queue are owned by the executor
// goroutine; primary is owned by the event loop.
type replica struct {
	m     *Mechanisms
	group GroupID
	style Style
	app   Application
	tasks *taskQueue

	synced atomic.Bool
	// primary marks this node as g.members[0]; loop-owned. wasBackup
	// records that the replica served as a non-primary at some point,
	// which is what makes a later promotion a failover.
	primary   bool
	wasBackup bool

	// executor-owned state.
	executed    fifo.Map[opKey, giop.Reply]
	dedupLen    atomic.Int64 // executed.Len(), readable off the executor
	opCount     uint64
	lastOpTS    uint64
	pendingLog  []logrec.Entry // warm-passive backup replay log
	holdback    []task         // invocations buffered until state arrives
	curParentTS uint64
	curChildSeq uint32
}

func newReplica(m *Mechanisms, group GroupID, style Style, app Application) *replica {
	r := &replica{
		m:     m,
		group: group,
		style: style,
		app:   app,
		tasks: newTaskQueue(),
	}
	r.executed.Init(m.cfg.DedupCapacity)
	if app != nil {
		go r.runExecutor()
	}
	return r
}

func (r *replica) push(t task) { r.tasks.push(t) }

func (r *replica) close() { r.tasks.close() }

func (r *replica) runExecutor() {
	for {
		t, ok := r.tasks.pop()
		if !ok {
			return
		}
		r.handle(t)
	}
}

func (r *replica) handle(t task) {
	switch t.kind {
	case taskInvoke:
		if !r.synced.Load() {
			// State has not arrived yet: hold invocations back; they
			// replay in order once the transfer is applied. The wait is
			// unbounded, so the task must stop aliasing the delivery
			// buffer — holding it raw would pin every datagram touched
			// until the state transfer lands (and read reused memory if
			// datagrams are ever pooled).
			r.holdback = append(r.holdback, t.detach())
			return
		}
		r.handleInvoke(t)
	case taskCaptureState:
		r.handleCaptureState(t)
	case taskApplyState:
		r.handleApplyState(t)
	case taskApplySync:
		r.handleApplySync(t)
	case taskFailover:
		r.handleFailover()
	}
}

// execMode distinguishes why an invocation is being executed, which
// decides whether it is appended to the catch-up log and whether its
// response is multicast.
type execMode uint8

const (
	// execLive is the normal path: a freshly delivered invocation. It is
	// logged for future joiners and its response is multicast.
	execLive execMode = iota
	// execFailover re-executes a logged invocation on a promoted passive
	// primary. Responses ARE re-multicast: clients that already received
	// them suppress the duplicates, and clients the dead primary never
	// answered finally get theirs (paper section 3). The log already
	// holds these entries, so they are not re-appended.
	execFailover
	// execCatchup replays a donated log entry on a joining replica.
	// Responses were already multicast by the established members, so the
	// joiner stays quiet; the entries are seeded into its own log by the
	// transfer application, not re-appended here.
	execCatchup
)

func (r *replica) handleInvoke(t task) {
	if t.logInv {
		// The delivery already carries the encoded wire form; copy it
		// (it aliases the delivery buffer) rather than re-encoding.
		entry := logrec.Entry{Seq: t.ts, Data: append([]byte(nil), t.raw...)}
		switch r.style {
		case WarmPassive:
			r.pendingLog = append(r.pendingLog, entry)
		case ColdPassive:
			r.m.log.AppendOwned(uint32(r.group), entry)
		}
		return
	}
	if !t.execute {
		return
	}
	r.executeInvocation(t.msg, t.raw, t.ts, execLive)
}

// executeInvocation runs one invocation against the application,
// multicasting the response. Duplicate invocations (same operation
// identifier from the same source and client) are detected and
// suppressed: the cached response is re-sent so a reissuing client (or a
// gateway that failed over) still obtains the result, but the operation
// is not executed twice (paper sections 2.2, 3.3, 3.5). raw is the
// encoded wire form when the caller has it (the live path, which appends
// it to the catch-up log); replays pass nil.
func (r *replica) executeInvocation(msg Message, raw []byte, ts uint64, mode execMode) {
	key := opKey{src: msg.Header.SrcGroup, clientID: msg.Header.ClientID, op: msg.Header.Op}
	if rep, ok := r.executed.Get(key); ok {
		r.m.duplicateInvocations.Add(1)
		r.m.tracer.Event(traceKey(msg.Header), obs.StageDupSuppressed, string(r.m.cfg.NodeID))
		if mode != execCatchup {
			r.respond(msg, rep)
		}
		return
	}
	r.m.dedupMisses.Add(1)
	wire, err := giop.Unmarshal(msg.Payload)
	if err != nil {
		return
	}
	req, err := giop.DecodeRequest(wire)
	if err != nil {
		return
	}
	if raw != nil {
		// Log the wire form before executing: a checkpoint cut inside the
		// execution (maybeSync, at Seq == ts) then correctly truncates the
		// entry its state already covers. Replay paths whose entries are
		// already in the log pass nil.
		r.m.log.AppendOwned(uint32(r.group), logrec.Entry{Seq: ts, Data: append([]byte(nil), raw...)})
	}

	r.curParentTS = ts
	r.curChildSeq = 0
	rep := orb.InvokeServant(r.app, req)
	r.curParentTS = 0

	r.m.invocationsExecuted.Add(1)
	r.m.tracer.Event(traceKey(msg.Header), obs.StageExecute, string(r.m.cfg.NodeID))
	switch mode {
	case execFailover:
		r.m.replayedInvocations.Add(1)
	case execCatchup:
		r.m.transferEntriesReplayed.Add(1)
	}
	r.opCount++
	r.lastOpTS = ts
	r.remember(key, rep)
	if req.ResponseExpected && mode != execCatchup {
		r.respond(msg, rep)
	}
	r.maybeSync(ts)
}

// remember caches an executed operation's reply for duplicate detection,
// bounded by the configured capacity.
func (r *replica) remember(key opKey, rep giop.Reply) {
	r.executed.Add(key, rep)
	r.dedupLen.Store(int64(r.executed.Len()))
}

// respond multicasts a response addressed to the invoker's group,
// carrying the same client identifier and operation identifier as the
// invocation so receivers can correlate and deduplicate (figure 6).
func (r *replica) respond(inv Message, rep giop.Reply) {
	enc, err := EncodeReply(Header{
		Kind:     KindResponse,
		ClientID: inv.Header.ClientID,
		SrcGroup: inv.Header.DstGroup, // we are the invoked group
		DstGroup: inv.Header.SrcGroup,
		Op:       inv.Header.Op,
	}, rep)
	if err != nil {
		return
	}
	_ = r.m.multicastEncoded(enc)
	r.m.responsesSent.Add(1)
}

// maybeSync publishes state to the backups of a passive group — a
// StateSync every WarmSyncInterval operations for warm replicas, a
// checkpoint every CheckpointInterval for cold ones — and, for every
// style, cuts a local catch-up checkpoint every CheckpointInterval so
// this replica can donate state as checkpoint + log replay. Only
// executing replicas arrive here (the primary of passive groups, every
// replica of active ones).
func (r *replica) maybeSync(ts uint64) {
	r.maybeCheckpointLocal(ts)
	var interval int
	switch r.style {
	case WarmPassive:
		interval = r.m.cfg.WarmSyncInterval
	case ColdPassive:
		interval = r.m.cfg.CheckpointInterval
	default:
		return
	}
	if interval <= 0 || r.opCount%uint64(interval) != 0 {
		return
	}
	state, err := r.app.State()
	if err != nil {
		return
	}
	_ = r.m.multicast(Message{
		Header:  Header{Kind: KindStateSync, ClientID: UnusedClientID, SrcGroup: r.group, DstGroup: r.group},
		Payload: encodeState(statePayload{JoinTS: ts, OpCount: r.opCount, State: state}),
	})
	if r.style == WarmPassive {
		r.m.stateSyncs.Add(1)
	} else {
		r.m.checkpoints.Add(1)
	}
}

// maybeCheckpointLocal cuts a catch-up checkpoint into the local log:
// the state as of operation ts, truncating the logged entries the state
// already covers. A joiner is then donated this checkpoint plus the
// (bounded) entries logged since, instead of a full capture.
func (r *replica) maybeCheckpointLocal(ts uint64) {
	interval := r.m.cfg.CheckpointInterval
	if interval <= 0 || r.opCount%uint64(interval) != 0 {
		return
	}
	state, err := r.app.State()
	if err != nil {
		return
	}
	r.m.log.Checkpoint(uint32(r.group), logrec.Checkpoint{Seq: ts, OpCount: r.opCount, State: state})
	r.m.catchupCheckpoints.Add(1)
}

// handleCaptureState is the donor side of state transfer. When the local
// catch-up log holds a checkpoint, the donation is the checkpoint plus
// the entries logged since it — the joiner catches up by replaying a
// bounded suffix instead of receiving a fresh full capture. Without a
// checkpoint (a young group) it falls back to capturing the application
// state at this point in the total order.
func (r *replica) handleCaptureState(t task) {
	if cp, entries, err := r.m.log.Recover(uint32(r.group)); err == nil {
		_ = r.m.multicast(Message{
			Header: Header{Kind: KindStateTransfer, ClientID: UnusedClientID, SrcGroup: r.group, DstGroup: r.group},
			Payload: encodeState(statePayload{
				Target: t.joiner, JoinTS: t.ts, OpCount: cp.OpCount,
				State: cp.State, CpSeq: cp.Seq, Entries: entries,
			}),
		})
		r.m.stateTransfers.Add(1)
		r.m.transfersCheckpointed.Add(1)
		return
	}
	state, err := r.app.State()
	if err != nil {
		return
	}
	_ = r.m.multicast(Message{
		Header:  Header{Kind: KindStateTransfer, ClientID: UnusedClientID, SrcGroup: r.group, DstGroup: r.group},
		Payload: encodeState(statePayload{Target: t.joiner, JoinTS: t.ts, OpCount: r.opCount, State: state}),
	})
	r.m.stateTransfers.Add(1)
	r.m.transfersFullState.Add(1)
}

// handleApplyState is the joiner side of state transfer: install the
// donated checkpoint, replay the donated log suffix quietly (the
// established members already multicast these responses), then replay
// the invocations held back since the join.
func (r *replica) handleApplyState(t task) {
	if r.synced.Load() {
		return // duplicate transfer (donor died and was re-triggered)
	}
	st := t.state
	cpSeq := st.CpSeq
	if cpSeq == 0 {
		cpSeq = st.JoinTS // full capture: the state is current as of the join
	}
	switch r.style {
	case ColdPassive:
		// A cold backup stores the donation in its log; the application
		// is loaded only at failover.
		r.m.log.Checkpoint(uint32(r.group), logrec.Checkpoint{
			Seq: cpSeq, OpCount: st.OpCount, State: st.State,
		})
		for _, e := range st.Entries {
			r.m.log.AppendOwned(uint32(r.group), e)
		}
		r.opCount = st.OpCount + uint64(len(st.Entries))
	case WarmPassive:
		if err := r.app.SetState(st.State); err != nil {
			return
		}
		// Backups do not execute: the donated suffix becomes the pending
		// replay log, exactly as if this backup had logged those
		// invocations itself.
		r.opCount = st.OpCount
		r.pendingLog = append(r.pendingLog[:0], st.Entries...)
	default:
		if err := r.app.SetState(st.State); err != nil {
			return
		}
		r.opCount = st.OpCount
		if st.CpSeq > 0 {
			// Seed the local log with the donation so this replica is
			// immediately donor-capable for the next joiner.
			r.m.log.Checkpoint(uint32(r.group), logrec.Checkpoint{
				Seq: st.CpSeq, OpCount: st.OpCount, State: st.State,
			})
		}
		for _, e := range st.Entries {
			msg, err := Decode(e.Data)
			if err != nil {
				continue
			}
			if st.CpSeq > 0 {
				r.m.log.AppendOwned(uint32(r.group), e)
			}
			r.executeInvocation(msg, nil, e.Seq, execCatchup)
		}
	}
	r.synced.Store(true)
	r.m.mu.Lock()
	r.m.notifyChanged()
	r.m.mu.Unlock()

	// Replay invocations that were delivered between the join and the
	// state's arrival, in their original order.
	held := r.holdback
	r.holdback = nil
	for _, h := range held {
		r.handle(h)
	}
}

// handleApplySync is the backup side of periodic state synchronization.
func (r *replica) handleApplySync(t task) {
	switch r.style {
	case WarmPassive:
		if err := r.app.SetState(t.state.State); err != nil {
			return
		}
		r.opCount = t.state.OpCount
		// The synchronized state covers operations up to its capture
		// point; entries logged after it must survive for failover
		// replay (the capture races the entries still in flight to this
		// backup).
		kept := r.pendingLog[:0]
		for _, e := range r.pendingLog {
			if e.Seq > t.state.JoinTS {
				kept = append(kept, e)
			}
		}
		r.pendingLog = kept
		// Mirror the sync into the local log: a promoted warm backup
		// is then donor-capable from its last synchronized state.
		r.m.log.Checkpoint(uint32(r.group), logrec.Checkpoint{
			Seq: t.state.JoinTS, OpCount: t.state.OpCount, State: t.state.State,
		})
	case ColdPassive:
		r.m.log.Checkpoint(uint32(r.group), logrec.Checkpoint{
			Seq: t.state.JoinTS, OpCount: t.state.OpCount, State: t.state.State,
		})
	}
}

// handleFailover promotes a passive backup to primary: reconstruct the
// primary's state and re-execute the invocations it may not have
// answered. Responses for replayed operations are multicast normally;
// clients that already received them suppress the duplicates, and
// clients the dead primary never answered finally get their responses —
// this is exactly the scenario of paper section 3, where a new primary
// that never saw the original invocation could not produce the response.
func (r *replica) handleFailover() {
	r.m.failovers.Add(1)
	var entries []logrec.Entry
	logReplayed := false
	switch r.style {
	case WarmPassive:
		// State is current as of the last sync; replay the log since.
		// The replayed entries are appended to the catch-up log (the
		// last sync mirrored a checkpoint there), keeping the promoted
		// primary donor-capable.
		entries = r.pendingLog
		r.pendingLog = nil
		logReplayed = true
	case ColdPassive:
		cp, logged, err := r.m.log.Recover(uint32(r.group))
		if err == nil {
			if err := r.app.SetState(cp.State); err != nil {
				return
			}
			r.opCount = cp.OpCount
		}
		// With no checkpoint the application starts from its initial
		// state and the full log replays. The entries are already in the
		// log, so the replay must not re-append them.
		entries = logged
	default:
		return
	}
	r.synced.Store(true)
	for _, e := range entries {
		msg, err := Decode(e.Data)
		if err != nil {
			continue
		}
		var raw []byte
		if logReplayed {
			raw = e.Data
		}
		r.executeInvocation(msg, raw, e.Seq, execFailover)
	}
}

// --- nested invocations ----------------------------------------------------

// Handle lets a replicated application issue nested invocations on other
// object groups. Obtain one from Mechanisms.Handle and call Invoke only
// from within Application.Invoke: the operation identifiers of nested
// invocations are derived from the timestamp of the parent invocation
// being executed (figure 6), so every replica issues the identical
// identifier and the target group executes the operation exactly once.
type Handle struct {
	m     *Mechanisms
	group GroupID
}

// Handle returns the nested-invocation handle for this node's replica of
// the group.
func (m *Mechanisms) Handle(group GroupID) *Handle {
	return &Handle{m: m, group: group}
}

// Invoke performs a nested invocation on the object identified by
// objectKey from within the currently executing operation.
func (h *Handle) Invoke(objectKey []byte, op string, args []byte, timeout time.Duration) (*cdr.Reader, error) {
	dst, ok := h.m.GroupByKey(objectKey)
	if !ok {
		return nil, fmt.Errorf("replication: object key %q: %w", objectKey, ErrNoSuchGroup)
	}
	h.m.mu.RLock()
	g, ok := h.m.groups[h.group]
	if !ok || g.local == nil {
		h.m.mu.RUnlock()
		return nil, fmt.Errorf("group %d: %w", h.group, ErrNotMember)
	}
	r := g.local
	h.m.mu.RUnlock()
	if r.curParentTS == 0 {
		return nil, errors.New("replication: nested Invoke outside an executing operation")
	}
	r.curChildSeq++
	opID := OperationID{ParentTS: r.curParentTS, ChildSeq: r.curChildSeq}
	rep, err := h.m.Invoke(h.group, UnusedClientID, dst, opID, giop.Request{
		RequestID:        r.curChildSeq,
		ResponseExpected: true,
		ObjectKey:        objectKey,
		Operation:        op,
		Args:             args,
	}, timeout)
	if err != nil {
		return nil, err
	}
	return orb.ReplyReader(rep)
}
