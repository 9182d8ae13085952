package replication

import (
	"sync"

	"eternalgw/internal/fifo"
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
	mu    sync.Mutex
	calls map[opKey][]*pendingCall
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
}

// departedKey stands for a departed client, named as its operations are:
// by server group and the identifier it had there. No operation has the
// key: what a gateway conveys for a client has parent timestamp zero.
func departedKey(serverGroup GroupID, clientID uint64) opKey {
	return opKey{src: serverGroup, clientID: clientID, op: OperationID{ParentTS: ^uint64(0)}}
}

// remember notes an operation as answered; the first note wins. record
// says the reply, a window onto a delivered datagram, belongs in the
// gateway-group record, where it is kept under retain's rule: the
// datagram itself if sole, a copy if it was packed. Callers hold sh.mu.
func (sh *pendingShard) remember(key opKey, reply []byte, sole, record bool) {
	if sh.answered.Has(key) {
		return
	}
	var kept []byte
	if record && len(reply) > 0 {
		kept = retain(reply, sole)
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
		sh.calls = make(map[opKey][]*pendingCall)
		sh.answered.Init(per, window/pendingShards)
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
		for _, calls := range sh.calls {
			total += len(calls)
		}
		sh.mu.Unlock()
	}
	return total
}

// register adds a call awaiting responses for the operation.
func (t *pendingTable) register(key opKey, c *pendingCall) {
	sh := t.shard(key)
	sh.mu.Lock()
	sh.calls[key] = append(sh.calls[key], c)
	sh.mu.Unlock()
}

// unregister removes a call, whether resolved or abandoned (timeout).
func (t *pendingTable) unregister(key opKey, c *pendingCall) {
	sh := t.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	calls := sh.calls[key]
	kept := calls[:0]
	for _, pc := range calls {
		if pc != c {
			kept = append(kept, pc)
		}
	}
	if len(kept) == 0 {
		delete(sh.calls, key)
	} else {
		sh.calls[key] = kept
	}
}
