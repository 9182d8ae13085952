package replication

import (
	"sync"

	"eternalgw/internal/fifo"
	"eternalgw/internal/slab"
)

// pendingShards is how many locks the pending-call table and the
// answered-operation table are split across. Must be a power of two.
const pendingShards = 16

// answeredCapacity bounds the answered-operation table, and with it the
// section 3.5 record: how many operations back a processor discards a
// late response copy and a gateway answers a reissue itself.
const answeredCapacity = 8192

// operationCapacity bounds a replica's operation table: how many
// operations back it recognizes a duplicate invocation.
const operationCapacity = 16384

// ReplyWindow bounds the reply bytes a table keeps among its identifiers
// — each replica's operation table, and a processor's answered table over
// its shards: how far back a duplicate is answered with the reply itself
// (DESIGN.md section 8 has the arithmetic). Beyond it the identifier
// stands alone.
const ReplyWindow = 32 << 20

// pendingShard is one lock's worth of the pending-call table: the calls
// awaiting responses plus the operations already answered here.
type pendingShard struct {
	mu sync.Mutex
	// calls holds the first call awaiting each operation; a second waiter
	// on one operation, which is rare, hangs off it (Call.next).
	calls map[opKey]*Call
	// closed is set by Stop: the shard's calls were completed with
	// ErrStopped, and it registers none.
	closed bool
	// answered holds every operation whose first response this processor
	// delivered or observed. Present means answered: the header peek
	// discards the 2nd..Rth replica copies on it without payload decode
	// (section 3.3). A non-nil value is the section 3.5 gateway-group
	// record — that first response's encapsulated IIOP bytes, kept where
	// the response carries a TCP client identifier and this node is a
	// client-only member of the group it is addressed to — from which any
	// gateway on this processor answers a reissue without re-invoking the
	// servers, for as long as the shard's window holds it: a reissue from
	// further back is conveyed like a first request, and the servers'
	// tables answer it. A departed client's entries give way to one bare
	// entry under departedKey, on which what still arrives for it is
	// discarded.
	answered fifo.Map[opKey]
	// copies is what the record's copies of parts of packs are carved out
	// of (retain). answered lets go of its entries in the order they were
	// added, so the chunks go in that order too; an entry forget drops out
	// of turn pins its chunk, at most, until the entries around it go.
	copies slab.Slab[byte]
}

// departedKey stands for a departed client, named as its operations are:
// by server group and the identifier it had there. No operation has the
// key: what a gateway conveys for a client has parent timestamp zero, or
// the total-order timestamp a replicated caller carried (FT_O), which
// never reaches the all-ones value.
func departedKey(serverGroup GroupID, clientID uint64) opKey {
	return opKey{src: serverGroup, clientID: clientID, op: OperationID{ParentTS: ^uint64(0)}}
}

// remember notes an operation as answered; the first note wins. record
// says the reply, a window onto a delivered datagram, belongs in the
// gateway-group record, where it is kept under retain's rule — the
// datagram itself if sole, a copy carved out of the shard's slab if it was
// packed — as the record is cut by its window, not by a checkpoint.
// Callers hold sh.mu.
func (sh *pendingShard) remember(key opKey, reply []byte, sole, record bool) {
	if sh.answered.Has(key) {
		return
	}
	var kept []byte
	if record && len(reply) > 0 {
		kept = retain(reply, sole, &sh.copies)
	}
	sh.answered.Add(key, kept)
}

// pendingTable is the sharded pending-call table: concurrent Invokes
// register and resolve under per-shard locks, not the directory mutex.
type pendingTable struct {
	shards [pendingShards]pendingShard
}

// newPendingTable builds a table that remembers roughly capacity
// answered operations and window bytes of their replies, both split
// evenly across the shards.
func newPendingTable(capacity, window int) *pendingTable {
	per := (capacity + pendingShards - 1) / pendingShards
	t := &pendingTable{}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.calls = make(map[opKey]*Call)
		sh.answered.Init(per, window/pendingShards)
		sh.copies = slab.New[byte](slab.ByteChunk)
	}
	return t
}

// shard maps an operation key to its shard: everything a gateway conveys
// for one external client shares the client's shard (its departure
// touches only that one), and traffic without a client identifier —
// in-domain and nested invocations — spreads by the rest of the key.
// Fibonacci hashing spreads counter-assigned identifiers (sequential
// values xor a nonce), FNV hashes and sequence numbers alike.
func (t *pendingTable) shard(k opKey) *pendingShard {
	h := k.clientID
	if h == UnusedClientID {
		h = k.op.ParentTS ^ uint64(k.op.ChildSeq)<<32 ^ uint64(k.src)<<13
	}
	return &t.shards[(h*0x9E3779B97F4A7C15)>>(64-4)&(pendingShards-1)]
}

// reply returns the recorded response for an operation, if the
// gateway-group record holds one.
func (t *pendingTable) reply(key opKey) ([]byte, bool) {
	sh := t.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	raw, _ := sh.answered.Get(key)
	return raw, raw != nil
}

// forget drops everything remembered on behalf of a departed client of
// a server group, in place and from the client's one shard, and
// remembers the departure in its stead.
func (t *pendingTable) forget(serverGroup GroupID, clientID uint64) {
	sh := t.shard(opKey{clientID: clientID})
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.answered.DeleteFunc(func(k opKey) bool {
		return k.src == serverGroup && k.clientID == clientID
	})
	sh.remember(departedKey(serverGroup, clientID), nil, false, false)
}

// remembered counts the recorded replies, their bytes, and the entries
// held in all, the replies and the departed clients' among them.
func (t *pendingTable) remembered() (replies, replyBytes, answered int) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n, bytes := sh.answered.Replies()
		replies += n
		replyBytes += bytes
		answered += sh.answered.Len()
		sh.mu.Unlock()
	}
	return replies, replyBytes, answered
}

// occupancy counts the calls currently awaiting responses across all
// shards. It takes each shard lock briefly; callers are scrape-time or
// interval-sampled (the admission breaker), not per-request.
func (t *pendingTable) occupancy() int {
	total := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, c := range sh.calls {
			for ; c != nil; c = c.next {
				total++
			}
		}
		sh.mu.Unlock()
	}
	return total
}

// register adds a call awaiting responses for its operation, unless Stop
// closed the table.
func (t *pendingTable) register(c *Call) bool {
	sh := t.shard(c.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return false
	}
	c.next = sh.calls[c.key]
	sh.calls[c.key] = c
	return true
}

// unregister removes a call, whether resolved or abandoned (timeout).
func (t *pendingTable) unregister(c *Call) {
	sh := t.shard(c.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var prev *Call
	for p := sh.calls[c.key]; p != nil; prev, p = p, p.next {
		if p == c { // still awaiting: nothing has resolved it
			sh.drop(c.key, c, prev)
			return
		}
	}
}

// close completes every registered call with ErrStopped, and closes each
// shard to further registrations: no response will come for them.
func (t *pendingTable) close() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.closed = true
		for key, c := range sh.calls {
			delete(sh.calls, key)
			for c != nil {
				next := c.next
				c.next = nil
				c.done.Complete(Response{err: ErrStopped})
				c = next
			}
		}
		sh.mu.Unlock()
	}
}

// reconvey hands send, in a buffer of its own behind room unwritten
// bytes, the invocation of every call still awaiting its response.
func (t *pendingTable) reconvey(room int, send func([]byte)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, c := range sh.calls {
			for ; c != nil; c = c.next {
				send(append(make([]byte, room, room+len(c.sent)), c.sent...))
			}
		}
		sh.mu.Unlock()
	}
}

// drop takes c, which follows prev (nil: c is the first), out of the
// calls awaiting key. Callers hold sh.mu.
func (sh *pendingShard) drop(key opKey, c, prev *Call) {
	switch {
	case prev != nil:
		prev.next = c.next
	case c.next != nil:
		sh.calls[key] = c.next
	default:
		delete(sh.calls, key)
	}
	c.next = nil
}

// waiter is a synchronous invocation's call (invoke) and its Completion:
// it hands the response to the caller waiting on ch, whose capacity of
// one holds the one completion a registration gets without blocking.
// Waiters are reused (idleWaiters), as orb.AcquireTimer reuses timers.
type waiter struct {
	call Call
	ch   chan Response
}

// Complete hands the response to the waiting caller.
func (w *waiter) Complete(res Response) { w.ch <- res }

var idleWaiters sync.Pool

// acquireWaiter returns a waiter whose call is ready and whose channel
// holds nothing.
func acquireWaiter() *waiter {
	if w, ok := idleWaiters.Get().(*waiter); ok {
		return w
	}
	return &waiter{ch: make(chan Response, 1)}
}

// releaseWaiter takes back what the event loop may have completed a
// waiter with after its caller stopped waiting — a response that crossed
// its timeout — so that it never reaches the caller that reuses the
// waiter. Its call must be released: nothing completes it any more.
func releaseWaiter(w *waiter) {
	select {
	case <-w.ch:
	default:
	}
	idleWaiters.Put(w)
}
