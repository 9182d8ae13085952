package core

import (
	"testing"

	"eternalgw/internal/replication"
)

// rawRep builds a distinguishable stand-in for raw reply bytes.
func rawRep(id uint32) []byte { return []byte{byte(id)} }

func recKey(client uint64, parentTS uint64) cacheKey {
	return cacheKey{
		group:    replication.GroupID(7),
		clientID: client,
		op:       replication.OperationID{ParentTS: parentTS, ChildSeq: 0},
	}
}

func TestRecordStoreEvictsOldestPastCapacity(t *testing.T) {
	// Capacity is split across the shards; one client's records all land
	// in one shard, so a single client sees a per-shard bound of
	// ceil(32/16) = 2 entries.
	store := newRecordStore(32)
	const client = 42
	const n = 6
	for i := uint64(0); i < n; i++ {
		store.storeReply(recKey(client, i), rawRep(uint32(i)))
	}
	if got := store.countReplies(); got != 2 {
		t.Fatalf("countReplies = %d, want per-shard bound 2", got)
	}
	// The oldest entries were evicted in FIFO order; only the newest two
	// survive.
	for i := uint64(0); i < n-2; i++ {
		if _, ok := store.reply(recKey(client, i)); ok {
			t.Fatalf("reply %d still cached, want evicted as oldest", i)
		}
	}
	for i := uint64(n - 2); i < n; i++ {
		rep, ok := store.reply(recKey(client, i))
		if !ok {
			t.Fatalf("reply %d missing, want retained as newest", i)
		}
		if len(rep) != 1 || rep[0] != byte(i) {
			t.Fatalf("reply %d has bytes %v", i, rep)
		}
	}
}

func TestRecordStoreSeenEvictsOldest(t *testing.T) {
	store := newRecordStore(16) // per-shard bound 1
	const client = 9
	if store.noteSeen(recKey(client, 1)) {
		t.Fatal("first noteSeen reported a reinvocation")
	}
	if !store.noteSeen(recKey(client, 1)) {
		t.Fatal("repeated noteSeen did not report a reinvocation")
	}
	// A second key evicts the first from the one-entry shard, so the
	// first key reads as fresh again.
	if store.noteSeen(recKey(client, 2)) {
		t.Fatal("fresh key reported as reinvocation")
	}
	if store.noteSeen(recKey(client, 1)) {
		t.Fatal("evicted key still reported as reinvocation")
	}
	if got := store.countSeen(); got > 1 {
		t.Fatalf("countSeen = %d, want bounded at 1", got)
	}
}

func TestRecordStoreFirstReplyWins(t *testing.T) {
	store := newRecordStore(64)
	key := recKey(5, 100)
	store.storeReply(key, rawRep(1))
	store.storeReply(key, rawRep(2))
	rep, ok := store.reply(key)
	if !ok {
		t.Fatal("reply missing")
	}
	if len(rep) != 1 || rep[0] != 1 {
		t.Fatalf("reply bytes = %v, want the first recorded reply to win", rep)
	}
}

func TestRecordStoreDropClientRemovesOnlyThatClient(t *testing.T) {
	store := newRecordStore(256)
	const departed = 17
	// Find a client that hashes to the departed client's shard, so the
	// compaction must discriminate by client id and not just by shard.
	sameShard := uint64(0)
	for c := uint64(18); ; c++ {
		if store.shard(c) == store.shard(departed) {
			sameShard = c
			break
		}
	}
	clients := []uint64{1, 2, 3, departed, 33, sameShard}
	const perClient = 4
	for _, c := range clients {
		for i := uint64(0); i < perClient; i++ {
			k := recKey(c, i)
			store.noteSeen(k)
			store.storeReply(k, rawRep(uint32(c)))
		}
	}
	store.dropClient(departed)
	for i := uint64(0); i < perClient; i++ {
		if _, ok := store.reply(recKey(departed, i)); ok {
			t.Fatalf("departed client's reply %d survived dropClient", i)
		}
		if !store.noteSeen(recKey(departed, i)) {
			// noteSeen returning false means the key was gone (and is now
			// re-recorded), which is what we want; clean it up again.
			store.dropClient(departed)
			continue
		}
		t.Fatalf("departed client's seen key %d survived dropClient", i)
	}
	for _, c := range clients {
		if c == departed {
			continue
		}
		for i := uint64(0); i < perClient; i++ {
			if _, ok := store.reply(recKey(c, i)); !ok {
				t.Fatalf("client %d reply %d lost by another client's departure", c, i)
			}
			if !store.noteSeen(recKey(c, i)) {
				t.Fatalf("client %d seen key %d lost by another client's departure", c, i)
			}
		}
	}
}
