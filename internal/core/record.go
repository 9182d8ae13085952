package core

import (
	"sync"

	"eternalgw/internal/fifo"
)

// recordShards is how many locks the gateway-group record is split
// across. Must be a power of two.
const recordShards = 16

// recordStore holds the section 3.5 gateway-group record: the request
// keys seen by the group (to detect reinvocations) and the responses that
// flowed through any gateway (to answer reissued invocations after a
// gateway failure). It is sharded by client identifier so concurrent
// clients do not contend on one lock, and each shard bounds both record
// kinds with a first-wins table that evicts oldest-first in O(1).
//
// Sharding by client keeps all of one client's records in one shard, so
// deleting a departed client's state touches a single shard.
type recordStore struct {
	shards [recordShards]recordShard
}

type recordShard struct {
	mu   sync.Mutex
	seen fifo.Map[cacheKey, struct{}]
	// replies holds the raw encapsulated IIOP reply bytes as they
	// appeared on the wire: the observer on the replication event loop
	// stores them without decoding, and the rare reissue path decodes on
	// a hit.
	replies fifo.Map[cacheKey, []byte]
}

// newRecordStore builds a store bounded at roughly capacity entries per
// record kind, split evenly across the shards.
func newRecordStore(capacity int) *recordStore {
	per := (capacity + recordShards - 1) / recordShards
	s := &recordStore{}
	for i := range s.shards {
		s.shards[i].seen.Init(per)
		s.shards[i].replies.Init(per)
	}
	return s
}

// shard maps a client identifier to its shard. Fibonacci hashing spreads
// both counter-assigned identifiers (sequential values xor a nonce) and
// enhanced clients' FNV hashes.
func (s *recordStore) shard(clientID uint64) *recordShard {
	return &s.shards[(clientID*0x9E3779B97F4A7C15)>>(64-4)&(recordShards-1)]
}

// noteSeen records a request key and reports whether the group had
// already seen it (a reinvocation).
func (s *recordStore) noteSeen(key cacheKey) bool {
	sh := s.shard(key.clientID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return !sh.seen.Add(key, struct{}{})
}

// storeReply caches a raw response under its operation key; the first
// recorded response wins, matching the deduplication rule. The bytes are
// copied: the caller's slice may be a window onto a delivered datagram
// (the datagram is the arena: every payload packed into it and, on
// memnet, every ring member shares it), which must not be pinned for
// the record's lifetime.
func (s *recordStore) storeReply(key cacheKey, raw []byte) {
	sh := s.shard(key.clientID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.replies.Has(key) {
		sh.replies.Add(key, append([]byte(nil), raw...))
	}
}

// reply returns the recorded raw response for an operation key, if any.
func (s *recordStore) reply(key cacheKey) ([]byte, bool) {
	sh := s.shard(key.clientID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.replies.Get(key)
}

// dropClient deletes every record kept on a departed client's behalf.
// Only that client's shard is touched.
func (s *recordStore) dropClient(clientID uint64) {
	sh := s.shard(clientID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	departed := func(k cacheKey) bool { return k.clientID == clientID }
	sh.seen.DeleteFunc(departed)
	sh.replies.DeleteFunc(departed)
}

// countSeen reports the number of request records held.
func (s *recordStore) countSeen() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.seen.Len()
		sh.mu.Unlock()
	}
	return n
}

// countReplies reports the number of responses held.
func (s *recordStore) countReplies() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.replies.Len()
		sh.mu.Unlock()
	}
	return n
}
