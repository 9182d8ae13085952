package replication

import (
	"sync"

	"eternalgw/internal/fifo"
)

// pendingShards is how many locks the pending-call table and the
// early-discard done-set are split across. Must be a power of two.
const pendingShards = 16

// pendingShard is one lock's worth of the pending-call table: the calls
// awaiting responses plus the done-set remembering operations whose
// first response copy has already been answered (or recorded) here.
type pendingShard struct {
	mu    sync.Mutex
	calls map[opKey][]*pendingCall
	// done is consulted from the header peek: once an operation is in
	// it, the 2nd..Rth replica copies of its response are discarded
	// without payload decode.
	done fifo.Map[opKey, struct{}]
}

// markDone remembers an answered operation. Callers hold sh.mu.
func (sh *pendingShard) markDone(key opKey) { sh.done.Add(key, struct{}{}) }

// pendingTable is the sharded pending-call table: concurrent Invokes
// from many gateway connections register and resolve under per-shard
// locks instead of serializing behind the group-directory mutex.
type pendingTable struct {
	shards [pendingShards]pendingShard
}

// newPendingTable builds a table whose done-set is bounded at roughly
// capacity operations, split evenly across the shards.
func newPendingTable(capacity int) *pendingTable {
	per := (capacity + pendingShards - 1) / pendingShards
	t := &pendingTable{}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.calls = make(map[opKey][]*pendingCall)
		sh.done.Init(per)
	}
	return t
}

// shard maps an operation key to its shard. Fibonacci hashing over the
// mixed key fields spreads both gateway traffic (distinct client ids,
// ChildSeq-only operation ids) and nested invocations (distinct parent
// timestamps).
func (t *pendingTable) shard(k opKey) *pendingShard {
	h := k.clientID ^ k.op.ParentTS ^ uint64(k.op.ChildSeq)<<32 ^ uint64(k.src)<<13
	return &t.shards[(h*0x9E3779B97F4A7C15)>>(64-4)&(pendingShards-1)]
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
