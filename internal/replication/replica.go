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
	"eternalgw/internal/slab"
)

// taskKind enumerates replica executor work items.
type taskKind uint8

const (
	taskInvoke taskKind = iota + 1
	taskCaptureState
	taskApplyState
	taskApplySync
	taskFailover
	taskFound
)

// task is one unit of work, created by the event loop at a specific
// point in the total order and executed asynchronously in that order.
type task struct {
	kind taskKind
	// msg's payload may alias the delivery buffer; the executor decodes
	// or copies it, never retains it.
	msg Message
	// raw is the full encoded wire form of an invocation delivery
	// (header plus payload), aliasing the delivery buffer; logInvocation
	// keeps it in the recovery log as it is instead of re-encoding msg.
	raw     []byte
	ts      uint64
	execute bool
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
	mu sync.Mutex
	// items[head:] are queued. A popped slot is cleared, so the queue
	// keeps nothing of a task that has had its turn, and the array is
	// used from the front again once it drains: at a depth of one —
	// closed-loop traffic — a push allocates nothing.
	items  []task
	head   int
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
		if q.head < len(q.items) {
			t := q.items[q.head]
			q.items[q.head] = task{}
			if q.head++; q.head == len(q.items) {
				q.items, q.head = q.items[:0], 0
			}
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

func (q *taskQueue) isClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// replica is this node's runtime for one group membership: the hosted
// application (nil for client-only members such as gateways) plus the
// executor state. Fields below the queue are owned by the executor
// goroutine; primary is owned by the event loop.
//
// Logging-recovery invariant (DESIGN.md section 5). On every member that
// hosts a servant, whatever the style, log holds the newest checkpoint
// that member knows — cut locally if it executes, received by
// KindStateSync if it is a backup, donated if it joined, the initial state
// if it is a backup that founded the group (taskFound) — and every
// invocation delivered to it after that checkpoint's Seq, in total order
// and once: the operations its table (ops) does not hold yet. An executing
// member so leaves out the duplicates it suppressed (they changed
// nothing), a backup the second copies — behind a checkpoint that
// truncated the first, one would be taken for a first at failover.
// Passive failover and state donation both read that
// one image (logrec.Recover), and a joiner is seeded with it, so any
// servant member can recover the group or donate it at any point. The
// only difference between the passive styles is when a backup loads a
// checkpoint into its application: warm on arrival, cold at failover.
type replica struct {
	m     *Mechanisms
	group GroupID
	style Style
	app   Application
	tasks *taskQueue
	// log is this replica's share of the processor's Log (figure 2). It
	// lives and dies with the membership, so an image never outlasts the
	// incarnation it describes — not across a leave and rejoin, nor into a
	// group created again under a retired identifier.
	log *logrec.Log

	synced atomic.Bool
	// primary marks this node as g.members[0]; loop-owned. wasBackup
	// records that the replica served as a non-primary at some point,
	// which is what makes a later promotion a failover.
	primary   bool
	wasBackup bool

	// executor-owned state. ops is the operation table (DESIGN.md section
	// 8): every operation this replica has met, noted where its first copy
	// was delivered or donated and given its response — as encoded for the
	// multicast, read-only — where it ran here. A bare entry has run all the
	// same: behind the checkpoint a backup holds or in the log suffix its
	// failover executes first, or here, its response since lost to the window.
	ops fifo.Map[opKey]
	// ops.Len() and the bytes of its responses, readable off the executor.
	opsLen, opsBytes atomic.Int64
	// opCount operations are folded into the application state, the last
	// of them delivered at lastOpTS: the position a checkpoint cut now
	// reflects.
	opCount     uint64
	lastOpTS    uint64
	holdback    []task // invocations buffered until state arrives
	curParentTS uint64
	curChildSeq uint32
	// args and reply are the servant's reader and writer, reset for each
	// invocation (orb.InvokeServant): the executor runs one at a time.
	args  cdr.Reader
	reply cdr.Writer
	// req is the invocation being run, decoded into the room the last
	// one's service-context list left (decodeRequest), so that a client's
	// FT context costs no allocation. It holds the last invocation's
	// bytes until the next, as the recovery log does until a checkpoint.
	req giop.Request
	// responses is where respond carves the buffer of each response, its
	// first chunk made at the first. ops keeps what it builds in the order
	// it built them and lets go of them in that order, so a chunk lives
	// about as long as the table keeps its youngest response (DESIGN.md
	// section 7).
	responses slab.Slab[byte]
}

func newReplica(m *Mechanisms, group GroupID, style Style, app Application) *replica {
	r := &replica{
		m:     m,
		group: group,
		style: style,
		app:   app,
		tasks: newTaskQueue(),

		responses: slab.New[byte](slab.ByteChunk),
	}
	r.ops.Init(operationCapacity, ReplyWindow)
	if app != nil {
		r.log = logrec.NewLog()
		go r.runExecutor()
	}
	return r
}

func (r *replica) push(t task) { r.tasks.push(t) }

func (r *replica) close() { r.tasks.close() }

func (r *replica) runExecutor() {
	for {
		t, ok := r.tasks.pop()
		if !ok || r.runs(t) && !r.m.awaitPrimary(r.tasks) {
			return
		}
		r.handle(t)
	}
}

// runs reports whether t runs operations on the servant, which waits for a
// primary ring (awaitPrimary) and holds up what is behind it: an
// invocation, a failover's replay, a transfer's replay of the holdback.
func (r *replica) runs(t task) bool {
	return t.kind == taskInvoke || t.kind == taskFailover || t.kind == taskApplyState && len(r.holdback) > 0
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
	case taskFound:
		r.cutCheckpoint()
	}
}

// execMode distinguishes why an invocation is being executed, which
// decides whether it is appended to the recovery log and whether its
// response is multicast.
type execMode uint8

const (
	// execLive is the normal path: a freshly delivered invocation. It is
	// logged and its response is multicast.
	execLive execMode = iota
	// execFailover re-executes a logged invocation on a promoted passive
	// primary, whatever the table says: the log holds first copies alone
	// and none of them has run here. Responses ARE re-multicast: clients
	// that already received them suppress the duplicates, and clients the
	// dead primary never answered finally get theirs (paper section 3). The
	// log already holds these entries, so they are not re-appended.
	execFailover
	// execCatchup replays a donated log entry on a joining replica.
	// Responses were already multicast by the established members, so the
	// joiner stays quiet; the entries were seeded into its own log with
	// the donation, not re-appended here.
	execCatchup
)

func (r *replica) handleInvoke(t task) {
	if !t.execute {
		// A passive backup: the invocation waits in the log for failover,
		// unless it is a second copy (the replica invariant).
		if !r.remember(t.msg.Header.key(), nil) {
			r.m.duplicateInvocations.Add(1)
			return
		}
		r.logInvocation(t.ts, t.raw)
		return
	}
	r.executeInvocation(t.msg, t.raw, t.ts, execLive)
}

// logInvocation puts a delivered invocation's wire form into the recovery
// log as it was delivered — the one place a servant member keeps request
// bytes past their delivery. A part of a pack is kept by reference as
// much as a datagram of its own: the log is cut at every checkpoint
// (maybeCheckpoint, a passive primary's sync), so it pins at most an
// interval's datagrams per group (DESIGN.md section 7).
//
// gwlint:arena-keep
func (r *replica) logInvocation(ts uint64, raw []byte) {
	r.log.AppendOwned(uint32(r.group), logrec.Entry{Seq: ts, Data: raw})
}

// replay executes logged invocations in order; the entries stay owned by
// the log they came from.
func (r *replica) replay(entries []logrec.Entry, mode execMode) {
	for _, e := range entries {
		hv, err := DecodeHeader(e.Data)
		if err != nil {
			continue
		}
		r.executeInvocation(hv.Message(), e.Data, e.Seq, mode)
	}
}

// executeInvocation runs one invocation against the application,
// multicasting the response. Duplicate invocations (same operation
// identifier from the same source and client) are detected and
// suppressed: the kept response is sent again so a reissuing client (or a
// gateway that failed over) still obtains the result, but the operation
// is not executed twice (paper sections 2.2, 3.3, 3.5) — and, having
// changed nothing, is not logged either. raw is the invocation's encoded
// wire form.
func (r *replica) executeInvocation(msg Message, raw []byte, ts uint64, mode execMode) {
	key := msg.Header.key()
	if kept, met := r.ops.Get(key); met && mode != execFailover {
		r.m.duplicateInvocations.Add(1)
		r.m.tracer.Event(traceKey(msg.Header), obs.StageDupSuppressed, string(r.m.id))
		if mode == execLive {
			r.answerDuplicate(msg, kept)
		}
		return
	}
	r.m.dedupMisses.Add(1)
	req, err := r.decodeRequest(msg.Payload)
	if err != nil {
		return
	}
	if mode == execLive {
		// Log before executing: a checkpoint cut at the end of this
		// execution (Seq == ts) then truncates the entry its state already
		// covers.
		r.logInvocation(ts, raw)
	}

	r.curParentTS = ts
	r.curChildSeq = 0
	enc, err := r.respond(responseHeader(msg.Header), req)
	r.curParentTS = 0

	r.m.invocationsExecuted.Add(1)
	r.m.tracer.Event(traceKey(msg.Header), obs.StageExecute, string(r.m.id))
	switch mode {
	case execFailover:
		r.m.replayedInvocations.Add(1)
	case execCatchup:
		r.m.transferEntriesReplayed.Add(1)
	}
	r.opCount++
	r.lastOpTS = ts
	// A response that does not encode is none: the operation has run, and
	// its identifier says so.
	var response []byte
	if err == nil {
		response = enc[r.m.room:]
	}
	r.remember(key, response)
	if err == nil && req.ResponseExpected && mode != execCatchup {
		r.send(enc)
	}
	r.maybeCheckpoint()
}

// replyStart is what the buffer of a response starts with behind the two
// headers: the IIOP reply's head and a result of a value or two, before
// append has to grow it out of its region of a chunk (slab.ByteChunk:
// about twenty such regions behind the headers). Nothing is guessed from
// the request.
const replyStart = 128

// respond executes req against the application and returns the response
// addressed by h, encoded behind the mechanisms' headroom. The servant
// writes its result into the datagram the response travels in, carved
// from the replica's responses: the headers are there before it runs, and
// status, size and payload length are filled in once it has (DESIGN.md
// section 7). A response totem could not carry is replaced by a system
// exception that says the operation ran and its reply could not travel —
// the same bytes at every replica.
func (r *replica) respond(h Header, req giop.Request) ([]byte, error) {
	room, order := r.m.room, req.ArgsOrder
	rep := giop.Reply{RequestID: req.RequestID}
	buf, err := giop.OpenReply(openPayload(room, h, replyStart, &r.responses), order, 0, rep)
	if err != nil {
		return nil, err
	}
	buf, rep.Status = orb.InvokeServant(r.app, req, buf, &r.args, &r.reply)
	if buf, err = giop.SealReply(buf, room+headerLen, order, 0, rep); err != nil {
		return nil, err
	}
	if r.m.ceiling > 0 && len(buf) > r.m.ceiling {
		r.m.repliesTooLarge.Add(1)
		return encodeReply(room, h, giop.Reply{
			RequestID: req.RequestID,
			Status:    giop.ReplySystemException,
			Result:    giop.ImpLimitYes.Body(giopOrder, minorReplyTooLarge),
		})
	}
	return sealPayload(room, buf), nil
}

// remember records an operation in the table, with its response if it ran
// here, and reports whether this is the first the replica has met of it.
func (r *replica) remember(key opKey, response []byte) bool {
	first := r.ops.Add(key, response)
	_, bytes := r.ops.Replies()
	r.opsLen.Store(int64(r.ops.Len()))
	r.opsBytes.Store(int64(bytes))
	return first
}

// answerDuplicate answers a second copy of an operation that has run:
// with the response kept for it, or, where the table holds the identifier
// alone, with a system exception that says it completed and its reply is
// no longer to be had — the same bytes at every replica.
func (r *replica) answerDuplicate(inv Message, kept []byte) {
	if kept != nil {
		// A copy: the kept bytes end a buffer totem took over with the
		// first response, and may hold yet (DESIGN.md section 7).
		r.send(append(make([]byte, r.m.room, r.m.room+len(kept)), kept...))
		return
	}
	r.m.duplicatesBeyondWindow.Add(1)
	req, err := r.decodeRequest(inv.Payload)
	if err != nil || !req.ResponseExpected {
		return
	}
	enc, err := encodeReply(r.m.room, responseHeader(inv.Header), giop.Reply{
		RequestID: req.RequestID,
		Status:    giop.ReplySystemException,
		Result:    giop.ReplyDiscarded.Body(giopOrder, minorBeyondWindow),
	})
	if err == nil {
		r.send(enc)
	}
}

// decodeRequest reads the IIOP request an invocation encapsulates into
// r.req, and returns it until the next decode; it borrows from payload.
func (r *replica) decodeRequest(payload []byte) (giop.Request, error) {
	wire, err := giop.Unmarshal(payload)
	if err != nil {
		return giop.Request{}, err
	}
	err = giop.DecodeRequestInto(wire, &r.req)
	return r.req, err
}

// responseHeader addresses a response to the invoker's group, carrying
// the same client identifier and operation identifier as the invocation
// so receivers can correlate and deduplicate (figure 6).
func responseHeader(inv Header) Header {
	return Header{
		Kind:     KindResponse,
		ClientID: inv.ClientID,
		SrcGroup: inv.DstGroup, // we are the invoked group
		DstGroup: inv.SrcGroup,
		Op:       inv.Op,
	}
}

// send multicasts a response encoded behind the mechanisms' headroom.
func (r *replica) send(enc []byte) {
	_ = r.m.multicastEncoded(enc)
	r.m.responsesSent.Add(1)
}

// maybeCheckpoint is the executing side of logging-recovery. Whoever
// executes — the primary of a passive group, every replica of the other
// styles — cuts a checkpoint into its own log every interval operations,
// and a passive primary also multicasts it so the backups' logs follow.
// Each cut is counted once, under the name its style has always had.
func (r *replica) maybeCheckpoint() {
	interval, cuts := checkpointInterval, &r.m.catchupCheckpoints
	switch r.style {
	case WarmPassive:
		interval, cuts = warmSyncInterval, &r.m.stateSyncs
	case ColdPassive:
		cuts = &r.m.checkpoints
	}
	if interval <= 0 || r.opCount%uint64(interval) != 0 {
		return
	}
	cp, ok := r.cutCheckpoint()
	if !ok {
		return
	}
	cuts.Add(1)
	if r.style.passive() {
		_ = r.m.multicast(Message{
			Header:  Header{Kind: KindStateSync, ClientID: UnusedClientID, SrcGroup: r.group, DstGroup: r.group},
			Payload: encodeState(statePayload{Checkpoint: cp}),
		})
	}
}

// cutCheckpoint captures the application state into the local log at the
// position it reflects, truncating the logged entries it covers.
func (r *replica) cutCheckpoint() (logrec.Checkpoint, bool) {
	state, err := r.app.State()
	if err != nil {
		return logrec.Checkpoint{}, false
	}
	cp := logrec.Checkpoint{Seq: r.lastOpTS, OpCount: r.opCount, State: state}
	r.log.Checkpoint(uint32(r.group), cp)
	return cp, true
}

// eager reports whether this replica loads a checkpoint into its
// application when it arrives; a cold-passive backup leaves it in the
// log until failover. Warm is cold plus eager apply, and nothing else.
func (r *replica) eager() bool { return r.style != ColdPassive }

// load replaces the application state with a checkpoint's.
func (r *replica) load(cp logrec.Checkpoint) error {
	if err := r.app.SetState(cp.State); err != nil {
		return err
	}
	r.opCount, r.lastOpTS = cp.OpCount, cp.Seq
	return nil
}

// adopt takes over a checkpoint this replica did not cut — a donation or
// a periodic sync — into the log, and into the application if the style
// is eager.
func (r *replica) adopt(cp logrec.Checkpoint) error {
	if r.eager() {
		if err := r.load(cp); err != nil {
			return err
		}
	}
	r.log.Checkpoint(uint32(r.group), cp)
	return nil
}

// handleCaptureState is the donor side of state transfer. A capture that
// could not be sent leaves the joiner owed its state: the join is marked
// un-queued again, so the next membership delta re-triggers it.
func (r *replica) handleCaptureState(t task) {
	if r.donate(t.joiner) {
		r.m.stateTransfers.Add(1)
		return
	}
	r.m.mu.Lock()
	if g, ok := r.m.groups[r.group]; ok && g.pendingJoins[t.joiner] {
		g.pendingJoins[t.joiner] = false
	}
	r.m.mu.Unlock()
}

// donate multicasts this member's recovery image, its checkpoint plus the
// entries logged since, for the joiner to replay a bounded suffix. A
// donor that has not reached its first interval cuts the checkpoint now.
func (r *replica) donate(joiner memnet.NodeID) bool {
	if !r.log.HasCheckpoint(uint32(r.group)) {
		if _, ok := r.cutCheckpoint(); !ok {
			return false
		}
		r.m.catchupCheckpoints.Add(1)
	}
	cp, entries, err := r.log.Recover(uint32(r.group))
	if err != nil {
		return false
	}
	return r.m.multicast(Message{
		Header:  Header{Kind: KindStateTransfer, ClientID: UnusedClientID, SrcGroup: r.group, DstGroup: r.group},
		Payload: encodeState(statePayload{Target: joiner, Checkpoint: cp, Entries: entries}),
	}) == nil
}

// handleApplyState is the joiner side of state transfer: adopt the
// donated image as this member's own log, replay the suffix quietly if
// this replica executes (the established members already multicast those
// responses), then take up the invocations held back since the join.
func (r *replica) handleApplyState(t task) {
	if r.synced.Load() {
		return // duplicate transfer (donor died and was re-triggered)
	}
	cp, entries := t.state.Checkpoint, t.state.Entries
	if err := r.adopt(cp); err != nil {
		return
	}
	covered := cp.Seq
	for _, e := range entries {
		r.log.AppendOwned(uint32(r.group), e)
		covered = e.Seq
	}
	if !r.style.passive() {
		r.replay(entries, execCatchup)
	} else {
		for _, e := range entries {
			if hv, err := DecodeHeader(e.Data); err == nil {
				r.remember(hv.Header.key(), nil)
			}
		}
	}
	r.synced.Store(true)
	r.m.mu.Lock()
	r.m.notifyChanged()
	r.m.mu.Unlock()

	// The image was cut where the donor stood when it captured, which is
	// later than the join if the first donor died and the transfer was
	// re-triggered: what it already covers must not run a second time.
	held := r.holdback
	r.holdback = nil
	for _, h := range held {
		if h.ts > covered {
			r.handle(h)
		}
	}
}

// handleApplySync is the backup side of a passive primary's periodic
// checkpoint.
func (r *replica) handleApplySync(t task) {
	_ = r.adopt(t.state.Checkpoint) // a state the application refuses is not adopted
}

// handleFailover promotes a passive backup to primary: reconstruct the
// primary's state from the log and re-execute the invocations it may not
// have answered. Responses for replayed operations are multicast
// normally; clients that already received them suppress the duplicates,
// and clients the dead primary never answered finally get their
// responses — this is exactly the scenario of paper section 3, where a
// new primary that never saw the original invocation could not produce
// the response.
func (r *replica) handleFailover() {
	r.m.failovers.Add(1)
	// A backup promoted before any state reached it has no image and
	// serves from its initial state.
	cp, entries, err := r.log.Recover(uint32(r.group))
	if err == nil && !r.eager() {
		if r.load(cp) != nil {
			return
		}
	}
	r.synced.Store(true)
	r.replay(entries, execFailover)
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
