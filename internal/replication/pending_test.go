package replication

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/memnet"
	"eternalgw/internal/totem"
)

// TestConcurrentInvokeStress exercises the sharded pending-call table:
// many goroutines invoking concurrently across several groups, the shape
// of a gateway serving many client connections. Run under -race (make
// check) this is the data-race gate for the receive-path sharding.
func TestConcurrentInvokeStress(t *testing.T) {
	const (
		groups            = 4
		callers           = 4
		calls             = 25
		firstGrp  GroupID = 40
		clientGrp GroupID = 90
	)
	d := newDomain(t, 3)
	d.mustCreate(clientGrp, Active, "")
	d.mustJoin(d.ids[2], clientGrp, nil)
	for gi := 0; gi < groups; gi++ {
		id := firstGrp + GroupID(gi)
		d.mustCreate(id, Active, fmt.Sprintf("stress/%d", gi))
		d.mustJoin(d.ids[gi%2], id, &regApp{})
		d.mustJoin(d.ids[(gi+1)%2], id, &regApp{})
	}
	client := d.rms[d.ids[2]]
	for gi := 0; gi < groups; gi++ {
		if err := client.WaitForMembers(firstGrp+GroupID(gi), 2, 5*time.Second); err != nil {
			t.Fatalf("group %d members: %v", gi, err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, groups*callers)
	for gi := 0; gi < groups; gi++ {
		for ci := 0; ci < callers; ci++ {
			wg.Add(1)
			go func(dst GroupID, clientID uint64) {
				defer wg.Done()
				for i := uint32(1); i <= calls; i++ {
					_, err := client.Invoke(clientGrp, clientID, dst,
						OperationID{ParentTS: 0, ChildSeq: i}, giop.Request{
							RequestID:        i,
							ResponseExpected: true,
							ObjectKey:        []byte("stress"),
							Operation:        "set",
							Args:             octets([]byte("v")),
						}, 5*time.Second)
					if err != nil {
						errs <- fmt.Errorf("group %d client %d call %d: %w", dst, clientID, i, err)
						return
					}
				}
			}(firstGrp+GroupID(gi), uint64(ci+1))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if got := client.Stats().ResponsesDelivered; got != groups*callers*calls {
		t.Fatalf("ResponsesDelivered = %d, want %d", got, groups*callers*calls)
	}
}

// TestDuplicateResponseStormDiscardsEarly pins the early-discard
// arithmetic at replication degree 3: every request draws one response
// per replica, the first copy resolves the caller, and the remaining
// R-1 copies are discarded from the header peek — counted by both the
// duplicate-response counter and the new early-discard counter.
func TestDuplicateResponseStormDiscardsEarly(t *testing.T) {
	const n = 10
	d := newDomain(t, 4)
	apps := setupClientServer(t, d, Active, 3, 3)
	client := d.rms[d.ids[3]]
	for i := uint32(1); i <= n; i++ {
		rep, err := invokeAsClient(t, client, grpClient, 7, grpServer, i, "append", octets([]byte("x")))
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if rep.Status != giop.ReplyNoException {
			t.Fatalf("invoke %d: status %v", i, rep.Status)
		}
	}
	st := func() Stats { return client.Stats() }
	waitStat(t, func() uint64 { return st().ResponsesDelivered }, n)
	// Degree 3: two redundant copies per request, all discarded before
	// payload decode.
	waitStat(t, func() uint64 { return st().ResponsesDiscardedEarly }, (3-1)*n)
	waitStat(t, func() uint64 { return st().DuplicateResponses }, (3-1)*n)
	for i, app := range apps {
		if _, ops := app.snapshot(); ops != n {
			t.Fatalf("replica %d executed %d ops, want %d", i, ops, n)
		}
	}
	// The servers are not members of the responses' destination group:
	// redundant copies there fall off the header peek without being
	// counted as this node's duplicates.
	for i := 0; i < 3; i++ {
		if got := d.rms[d.ids[i]].Stats().DuplicateResponses; got != 0 {
			t.Fatalf("server %d DuplicateResponses = %d, want 0", i, got)
		}
	}
}

// TestDecodeHeaderMatchesDecode pins the header-first peek to the full
// decoder: same header, payload aliasing the input rather than copied.
func TestDecodeHeaderMatchesDecode(t *testing.T) {
	msg := Message{
		Header: Header{
			Kind:     KindResponse,
			ClientID: 0xDEADBEEF,
			SrcGroup: 12,
			DstGroup: 34,
			Op:       OperationID{ParentTS: 1 << 40, ChildSeq: 9},
		},
		Payload: []byte("encapsulated-iiop-reply"),
	}
	b := Encode(msg)
	hv, err := DecodeHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if hv.Header != full.Header {
		t.Fatalf("header peek %+v, full decode %+v", hv.Header, full.Header)
	}
	if string(hv.Payload) != string(full.Payload) {
		t.Fatalf("payload peek %q, full decode %q", hv.Payload, full.Payload)
	}
	// The view aliases the input; Decode copies.
	if len(hv.Payload) > 0 && &hv.Payload[0] != &b[len(b)-len(hv.Payload)] {
		t.Fatal("HeaderView payload does not alias the input buffer")
	}
	if &full.Payload[0] == &hv.Payload[0] {
		t.Fatal("Decode payload aliases the input buffer")
	}
}

// recKey is one gateway-conveyed operation of an external client: the
// parent timestamp is zero and the request id varies.
func recKey(client uint64, reqID uint32) opKey {
	return opKey{src: recServers, clientID: client, op: OperationID{ChildSeq: reqID}}
}

// recServers is the server group recKey's clients invoke.
const recServers GroupID = 7

// record remembers a first response the way deliverResponse does.
func (t *pendingTable) record(key opKey, reply []byte, keep bool) {
	sh := t.shard(key)
	sh.mu.Lock()
	sh.remember(key, reply, false, keep)
	sh.mu.Unlock()
}

func TestRecordStoreEvictsOldestPastCapacity(t *testing.T) {
	// Capacity is split across the shards; one client's records all land
	// in one shard, so a single client sees a per-shard bound of
	// ceil(32/16) = 2 entries.
	table := newPendingTable(32, ReplyWindow)
	const client = 42
	const n = 6
	for i := uint32(0); i < n; i++ {
		table.record(recKey(client, i), []byte{byte(i)}, true)
	}
	if replies, _, answered := table.remembered(); replies != 2 || answered != 2 {
		t.Fatalf("remembered = %d replies of %d answered, want per-shard bound 2 of 2", replies, answered)
	}
	// The oldest entries were evicted in FIFO order; only the newest two
	// survive.
	for i := uint32(0); i < n-2; i++ {
		if _, ok := table.reply(recKey(client, i)); ok {
			t.Fatalf("reply %d still recorded, want evicted as oldest", i)
		}
	}
	for i := uint32(n - 2); i < n; i++ {
		rep, ok := table.reply(recKey(client, i))
		if !ok {
			t.Fatalf("reply %d missing, want retained as newest", i)
		}
		if len(rep) != 1 || rep[0] != byte(i) {
			t.Fatalf("reply %d has bytes %v", i, rep)
		}
	}
}

// TestRecordStoreKeepsRepliesInsideTheWindow: the record of one client's
// shard is bounded by bytes before it is bounded by entries. A reply past
// the window reads as a miss — the gateway conveys the reissue like a
// first request — while its identifier still discards late copies.
func TestRecordStoreKeepsRepliesInsideTheWindow(t *testing.T) {
	table := newPendingTable(8*pendingShards, 8*pendingShards) // 8 entries and 8 bytes per shard
	const client = 42
	for i := uint32(0); i < 5; i++ {
		table.record(recKey(client, i), []byte{byte(i), 0, 0}, true)
	}
	if replies, replyBytes, answered := table.remembered(); replies != 2 || replyBytes != 6 || answered != 5 {
		t.Fatalf("remembered = %d replies in %d bytes of %d answered, want 2 in 6 of 5", replies, replyBytes, answered)
	}
	sh := table.shard(recKey(client, 0))
	for i := uint32(0); i < 5; i++ {
		rep, ok := table.reply(recKey(client, i))
		if want := i >= 3; ok != want || (ok && rep[0] != byte(i)) {
			t.Fatalf("reply %d recorded = %v (%v), want the newest two alone", i, ok, rep)
		}
		if !sh.answered.Has(recKey(client, i)) {
			t.Fatalf("operation %d is no longer known as answered", i)
		}
	}
}

func TestRecordStoreFirstReplyWins(t *testing.T) {
	table := newPendingTable(64, ReplyWindow)
	key := recKey(5, 100)
	first := []byte{1}
	table.record(key, first, true)
	table.record(key, []byte{2}, true)
	first[0] = 9 // the record is a copy, not a window onto the datagram
	rep, ok := table.reply(key)
	if !ok {
		t.Fatal("reply missing")
	}
	if len(rep) != 1 || rep[0] != 1 {
		t.Fatalf("reply bytes = %v, want the first recorded reply to win", rep)
	}
	// An operation first remembered without bytes stays that way: a
	// later copy is a duplicate, not a record.
	bare := recKey(5, 101)
	table.record(bare, []byte{1}, false)
	table.record(bare, []byte{1}, true)
	if _, ok := table.reply(bare); ok {
		t.Fatal("an operation remembered without bytes gained a reply from a later copy")
	}
}

func TestRecordStoreDropClientRemovesOnlyThatClient(t *testing.T) {
	table := newPendingTable(256, ReplyWindow)
	const departed = 17
	// Find a client that hashes to the departed client's shard, so the
	// compaction must discriminate by client id and not just by shard.
	sameShard := uint64(0)
	for c := uint64(18); ; c++ {
		if table.shard(recKey(c, 0)) == table.shard(recKey(departed, 0)) {
			sameShard = c
			break
		}
	}
	clients := []uint64{1, 2, 3, departed, 33, sameShard}
	const perClient = 4
	for _, c := range clients {
		for i := uint32(0); i < perClient; i++ {
			table.record(recKey(c, i), []byte{byte(c)}, true)
		}
	}
	// The same identifier at another server group is another client:
	// gateways count identifiers per group.
	elsewhere := recKey(departed, 0)
	elsewhere.src = recServers + 1
	table.record(elsewhere, []byte{0xE}, true)
	table.forget(recServers, departed)
	if _, ok := table.reply(elsewhere); !ok {
		t.Fatal("the departure took another server group's client of the same identifier with it")
	}
	home := table.shard(recKey(departed, 0))
	for i := uint32(0); i < perClient; i++ {
		if _, ok := table.reply(recKey(departed, i)); ok || home.answered.Has(recKey(departed, i)) {
			t.Fatalf("departed client's reply %d survived forget", i)
		}
	}
	if !home.answered.Has(departedKey(recServers, departed)) {
		t.Fatal("the departure is not remembered in the client's shard")
	}
	for _, c := range clients {
		if c == departed {
			continue
		}
		for i := uint32(0); i < perClient; i++ {
			if _, ok := table.reply(recKey(c, i)); !ok {
				t.Fatalf("client %d reply %d lost by another client's departure", c, i)
			}
		}
	}
	// What is left: the other clients' replies, and the departure.
	if replies, _, answered := table.remembered(); replies != (len(clients)-1)*perClient+1 || answered != replies+1 {
		t.Fatalf("remembered = %d replies of %d answered, want %d of %d", replies, answered, (len(clients)-1)*perClient+1, (len(clients)-1)*perClient+2)
	}
}

// TestRecordedRepliesCountFollowsTheTable: the table's own count of
// entries holding bytes and of those bytes, which is what RecordedReplies
// sums, moves with every way an entry comes and goes: recorded, remembered
// bare, evicted by a newer entry, forgotten with its client.
func TestRecordedRepliesCountFollowsTheTable(t *testing.T) {
	table := newPendingTable(4*pendingShards, ReplyWindow) // 4 entries per shard
	const client = 42
	sh := table.shard(recKey(client, 0))
	walk := func() (n int) {
		sh.answered.DeleteFunc(func(k opKey) bool {
			if reply, _ := sh.answered.Get(k); reply != nil {
				n++
			}
			return false
		})
		return n
	}
	check := func(step string, want int) {
		t.Helper()
		// Every reply here is one byte.
		if replies, replyBytes, _ := table.remembered(); replies != want || replyBytes != want || walk() != want {
			t.Fatalf("%s: count %d in %d bytes, the shard holds %d entries with bytes, want %d", step, replies, replyBytes, walk(), want)
		}
	}
	table.record(recKey(client, 0), []byte{1}, true)
	table.record(recKey(client, 1), []byte{1}, false)
	table.record(recKey(client, 2), []byte{1}, true)
	table.record(recKey(client, 2), []byte{2}, true) // a second copy records nothing
	table.record(recKey(client, 3), nil, true)       // an empty payload is no reply
	check("recorded", 2)
	table.record(recKey(client, 4), []byte{1}, true) // evicts request 0, which held bytes
	check("a reply evicted by a reply", 2)
	table.record(recKey(client, 5), []byte{1}, true) // evicts request 1, which was bare
	check("a bare entry evicted by a reply", 3)
	table.record(recKey(client, 6), []byte{1}, false) // evicts request 2, which held bytes
	check("a reply evicted by a bare entry", 2)
	table.forget(recServers, client)
	check("forgotten", 0)
}

// TestForgetTouchesOneShardAndAllocatesNothing: everything a gateway
// conveys for one external client lands in one shard, so the departure
// cleanup — which runs on the event loop — walks that shard alone, and
// compacts it in place.
func TestForgetTouchesOneShardAndAllocatesNothing(t *testing.T) {
	table := newPendingTable(answeredCapacity, ReplyWindow)
	const departed = 0xC0FFEE
	home := table.shard(recKey(departed, 0))
	for i := uint32(0); i < 64; i++ {
		if table.shard(recKey(departed, i)) != home {
			t.Fatalf("request %d of one client lands outside the client's shard", i)
		}
		table.record(recKey(departed, i), []byte{1}, true)
	}
	for c := uint64(1); c <= 400; c++ {
		table.record(recKey(c, 1), []byte{2}, true)
	}
	before := make([]int, pendingShards)
	for i := range table.shards {
		before[i] = table.shards[i].answered.Len()
	}
	table.forget(recServers, departed)
	for i := range table.shards {
		sh := &table.shards[i]
		want := before[i]
		if sh == home {
			want -= 64 - 1 // the client's entries go, its departure stays
		}
		if got := sh.answered.Len(); got != want {
			t.Fatalf("shard %d holds %d entries after the departure, want %d", i, got, want)
		}
	}
	// Traffic without a client identifier spreads by the rest of the key:
	// nested invocations by parent, root in-domain invocations (parent
	// timestamp zero, as interceptor.Connection.Call issues them) by their
	// sequence number.
	for name, key := range map[string]func(i uint64) opKey{
		"nested": func(i uint64) opKey { return opKey{src: 7, op: OperationID{ParentTS: i << 16, ChildSeq: 1}} },
		"root":   func(i uint64) opKey { return opKey{src: 7, op: OperationID{ChildSeq: uint32(i)}} },
	} {
		spread := map[*pendingShard]bool{}
		for i := uint64(1); i <= 64; i++ {
			spread[table.shard(key(i))] = true
		}
		if len(spread) < pendingShards/2 {
			t.Fatalf("64 %s operations without a client identifier landed in %d shards", name, len(spread))
		}
	}

	next := uint32(0)
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 8; i++ {
			table.record(recKey(departed, next), nil, false)
			next++
		}
		table.forget(recServers, departed)
	})
	if allocs != 0 {
		t.Fatalf("forget allocates %.1f times per departure", allocs)
	}
}

// TestRecordCopiesAllocateNothing: the record copies a reply that was a
// part of a pack into a region of its shard's slab, clipped to the reply,
// so a copy costs its share of a chunk and no allocation of its own, also
// when the shard is full and lets go of an entry for each it takes. One
// copied into a buffer of its own again reads 1. Each run records a batch
// of copies, so that a share of an allocation per copy shows.
func TestRecordCopiesAllocateNothing(t *testing.T) {
	const (
		most  = 0.05
		batch = 100
	)
	table := newPendingTable(answeredCapacity, ReplyWindow)
	const client = 42
	part := make([]byte, 150) // a 64 B echo's reply, headers included
	next := uint32(0)
	record := func() {
		part[0] = byte(next)
		table.record(recKey(client, next), part, true)
		next++
	}
	for range answeredCapacity / pendingShards {
		record() // the shard is full: each entry from here lets one go
	}
	n := testing.AllocsPerRun(40, func() {
		for range batch {
			record()
		}
	}) / batch
	t.Logf("%.2f allocations per recorded copy", n)
	if n > most {
		t.Errorf("%.3f allocations per recorded copy, want at most %v", n, most)
	}
	kept, ok := table.reply(recKey(client, next-1))
	if !ok || len(kept) != len(part) || cap(kept) != len(kept) || kept[0] != byte(next-1) || &kept[0] == &part[0] {
		t.Fatalf("the last reply is kept as %d bytes (capacity %d, recorded %v), not as a clipped copy of the part", len(kept), cap(kept), ok)
	}
}

// respond hands m a response as the event loop would, and returns its
// encapsulated reply bytes.
func respond(t *testing.T, m *Mechanisms, h Header, sender string, result byte) []byte {
	t.Helper()
	h.Kind = KindResponse
	enc, err := encodeReply(0, h, giop.Reply{RequestID: h.Op.ChildSeq, Result: []byte{result}})
	if err != nil {
		t.Fatal(err)
	}
	hv, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	m.deliverResponse(hv, totem.Delivery{Sender: memnet.NodeID(sender), Payload: enc})
	return hv.Payload
}

// TestAnsweredTableRecordsOnlyForClientOnlyMembers pins the rule that
// decides which first responses keep their bytes: the response carries
// a TCP client identifier and this node is a client-only member of the
// group it is addressed to. Every other first response a member sees is
// remembered bare — enough to discard its later copies.
func TestAnsweredTableRecordsOnlyForClientOnlyMembers(t *testing.T) {
	d := newDomain(t, 2)
	setupClientServer(t, d, Active, 1, 1) // n00 hosts the servant, n01 is the client-only member
	server, client := d.rms[d.ids[0]], d.rms[d.ids[1]]
	op := func(seq uint32) OperationID { return OperationID{ChildSeq: seq} }

	for _, tc := range []struct {
		name         string
		m            *Mechanisms
		h            Header
		wantAnswered bool
		wantRecorded bool
	}{
		{"client id, addressed to a group joined client-only", client,
			Header{ClientID: 7, SrcGroup: grpServer, DstGroup: grpClient, Op: op(1)}, true, true},
		{"unused client id", client,
			Header{ClientID: UnusedClientID, SrcGroup: grpServer, DstGroup: grpClient, Op: OperationID{ParentTS: 9 << 16, ChildSeq: 1}}, true, false},
		{"addressed to a group this node hosts a servant for", server,
			Header{ClientID: 7, SrcGroup: grpClient, DstGroup: grpServer, Op: op(2)}, true, false},
		{"addressed to a group this node is no member of", server,
			Header{ClientID: 7, SrcGroup: grpServer, DstGroup: grpClient, Op: op(3)}, false, false},
	} {
		before := tc.m.Stats()
		_, _, answeredBefore := tc.m.RecordedReplies()
		raw := respond(t, tc.m, tc.h, "n00", 1)
		respond(t, tc.m, tc.h, "n01", 1) // a second replica's copy
		got, recorded := tc.m.RecordedReply(tc.h.SrcGroup, tc.h.ClientID, tc.h.Op)
		if recorded != tc.wantRecorded || (recorded && !bytes.Equal(got, raw)) {
			t.Errorf("%s: recorded = %v (%d bytes), want %v", tc.name, recorded, len(got), tc.wantRecorded)
		}
		_, _, answered := tc.m.RecordedReplies()
		if (answered == answeredBefore+1) != tc.wantAnswered {
			t.Errorf("%s: answered operations %d -> %d, want remembered = %v", tc.name, answeredBefore, answered, tc.wantAnswered)
		}
		// A remembered operation's second copy is discarded from the
		// header peek; a non-member counts nothing.
		after := tc.m.Stats()
		wantDup := uint64(0)
		if tc.wantAnswered {
			wantDup = 1
		}
		if dup, early := after.DuplicateResponses-before.DuplicateResponses, after.ResponsesDiscardedEarly-before.ResponsesDiscardedEarly; dup != wantDup || early != wantDup {
			t.Errorf("%s: second copy counted %d duplicate / %d discarded early, want %d", tc.name, dup, early, wantDup)
		}
	}
}

// TestResponseAfterDepartureIsNotRecordedAgain: with two or more
// replicas a client's last reply straddles its departure — the first
// copy answers the client, the client disconnects, and the other copies
// are ordered after the gateway's notification. They, and a first copy
// nobody waits for any more, must be discarded on the remembered
// departure instead of being copied into the record of a client that
// can never reissue.
func TestResponseAfterDepartureIsNotRecordedAgain(t *testing.T) {
	d := newDomain(t, 1)
	d.mustCreate(grpClient, Active, "")
	d.mustJoin(d.ids[0], grpClient, nil)
	m := d.rms[d.ids[0]]

	h := Header{ClientID: 7, SrcGroup: grpServer, DstGroup: grpClient, Op: OperationID{ChildSeq: 1}}
	respond(t, m, h, "n01", 1)
	if replies, _, _ := m.RecordedReplies(); replies != 1 {
		t.Fatalf("RecordedReplies = %d before the departure, want 1", replies)
	}
	m.deliverGatewayControl(Header{Kind: KindGatewayControl, ClientID: h.ClientID, SrcGroup: grpServer, DstGroup: grpClient})
	before := m.Stats()
	respond(t, m, h, "n02", 1) // the second replica's copy
	abandoned := h
	abandoned.Op.ChildSeq = 2
	respond(t, m, abandoned, "n01", 1) // a first copy, its caller long gone
	if replies, _, _ := m.RecordedReplies(); replies != 0 {
		t.Fatalf("RecordedReplies = %d after the departure, want 0", replies)
	}
	for _, op := range []OperationID{h.Op, abandoned.Op} {
		if _, ok := m.RecordedReply(h.SrcGroup, h.ClientID, op); ok {
			t.Fatalf("operation %+v of the departed client is recorded", op)
		}
	}
	after := m.Stats()
	if after.ClientsDeparted != 1 || after.ResponsesDiscardedEarly-before.ResponsesDiscardedEarly != 2 {
		t.Fatalf("ClientsDeparted = %d, %d copies discarded early; want 1 and 2",
			after.ClientsDeparted, after.ResponsesDiscardedEarly-before.ResponsesDiscardedEarly)
	}
	// Other clients are none the wiser — the one that has the same
	// identifier at another server group included (gateways count
	// identifiers per group, so a connection's first request to each of
	// two groups gets the same value).
	other, sameID := h, h
	other.ClientID = 8
	sameID.SrcGroup = grpServer + 1
	for _, live := range []Header{other, sameID} {
		respond(t, m, live, "n01", 1)
		if _, ok := m.RecordedReply(live.SrcGroup, live.ClientID, live.Op); !ok {
			t.Fatalf("the reply to client %d of group %d was not recorded after another client's departure", live.ClientID, live.SrcGroup)
		}
	}
}

// TestVotingRecordHoldsTheDeliveredValue: a voting caller is answered
// when a majority of copies agree, and the record keeps the copy that
// completed the majority — what was delivered — not the first arrival.
func TestVotingRecordHoldsTheDeliveredValue(t *testing.T) {
	d := newDomain(t, 1)
	d.mustCreate(grpClient, Active, "")
	d.mustJoin(d.ids[0], grpClient, nil)
	m := d.rms[d.ids[0]]

	h := Header{ClientID: 7, SrcGroup: grpServer, DstGroup: grpClient, Op: OperationID{ChildSeq: 1}}
	w := acquireWaiter()
	w.call = Call{
		key:         opKey{src: h.SrcGroup, clientID: h.ClientID, op: h.Op},
		done:        w,
		expected:    3,
		votesNeeded: 2,
		votes:       make(map[string]int),
		responded:   make(map[memnet.NodeID]bool),
	}
	m.pending.register(&w.call)

	respond(t, m, h, "liar", 0xBD) // arrives first, disagrees
	if _, ok := m.RecordedReply(h.SrcGroup, h.ClientID, h.Op); ok {
		t.Fatal("a copy was recorded before any value was delivered")
	}
	respond(t, m, h, "n01", 0x11)
	majority := respond(t, m, h, "n02", 0x11)
	select {
	case res := <-w.ch:
		if len(res.rep.Result) != 1 || res.rep.Result[0] != 0x11 {
			t.Fatalf("caller got result %v, want the majority value", res.rep.Result)
		}
	default:
		t.Fatal("majority reached but the caller was not answered")
	}
	got, ok := m.RecordedReply(h.SrcGroup, h.ClientID, h.Op)
	if !ok || !bytes.Equal(got, majority) {
		t.Fatalf("record holds %x (present=%v), want the delivered copy %x", got, ok, majority)
	}
	if st := m.Stats(); st.ResponsesDelivered != 1 {
		t.Fatalf("ResponsesDelivered = %d, want 1", st.ResponsesDelivered)
	}
}

// TestTaskQueueReusesItsArrayAndForgetsWhatItPopped: at a depth of one —
// a closed-loop client — push and pop allocate nothing once the array is
// there, and the array keeps no reference to a task that has had its
// turn: a delivered datagram is not pinned by the queue it passed through.
func TestTaskQueueReusesItsArrayAndForgetsWhatItPopped(t *testing.T) {
	q := newTaskQueue()
	raw := make([]byte, 16<<10)
	q.push(task{kind: taskInvoke, raw: raw})
	if _, ok := q.pop(); !ok {
		t.Fatal("pop on a queue of one")
	}
	if n := testing.AllocsPerRun(1000, func() {
		q.push(task{kind: taskInvoke, raw: raw, ts: 1})
		if got, ok := q.pop(); !ok || got.ts != 1 {
			t.Fatal("pop did not return what was pushed")
		}
	}); n != 0 {
		t.Errorf("push and pop at depth one allocate %v times", n)
	}
	// Deeper, in order, and nothing of what was popped is left behind.
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			q.push(task{kind: taskInvoke, raw: raw, ts: uint64(i)})
		}
		for i := 0; i < 5; i++ {
			if got, ok := q.pop(); !ok || got.ts != uint64(i) {
				t.Fatalf("round %d: popped ts %d at position %d", round, got.ts, i)
			}
			for j, kept := range q.items[:cap(q.items)][:q.head] {
				if kept.raw != nil {
					t.Fatalf("round %d: slot %d still holds the datagram of a task popped", round, j)
				}
			}
		}
		if q.head != 0 || len(q.items) != 0 || cap(q.items) < 5 {
			t.Fatalf("round %d: drained, the queue stands at head %d len %d cap %d", round, q.head, len(q.items), cap(q.items))
		}
	}
	for j, kept := range q.items[:cap(q.items)] {
		if kept.raw != nil {
			t.Fatalf("drained, slot %d still holds a datagram", j)
		}
	}
}

// gateApp answers "slow" once it is released and every other operation
// at once, each with the operation's name.
type gateApp struct {
	regApp
	release chan struct{}
}

func (a *gateApp) Invoke(op string, _ *cdr.Reader, reply *cdr.Writer) error {
	if op == "slow" {
		<-a.release
	}
	reply.WriteString(op)
	return nil
}

// TestLateResponseNeverReachesTheNextCall: a call that timed out gives
// its Call and its waiter back for the next invocation to reuse, and the
// response that arrives after the timeout reaches nobody. End to end, the
// servant answers each timed-out call just before the next call is made;
// then the window itself, where the event loop completes the waiter after
// the caller's timer fired and before the caller released the call.
func TestLateResponseNeverReachesTheNextCall(t *testing.T) {
	d := newDomain(t, 2)
	d.mustCreate(grpServer, Active, testKeyStr)
	d.mustCreate(grpClient, Active, "")
	app := &gateApp{release: make(chan struct{})}
	d.mustJoin(d.ids[0], grpServer, app)
	d.mustJoin(d.ids[1], grpClient, nil)
	client := d.rms[d.ids[1]]
	if err := client.WaitForMembers(grpServer, 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	call := func(seq uint32, op string, timeout time.Duration) (giop.Reply, error) {
		return client.Invoke(grpClient, 7, grpServer, OperationID{ChildSeq: seq}, giop.Request{
			RequestID: seq, ResponseExpected: true, ObjectKey: []byte(testKeyStr), Operation: op,
		}, timeout)
	}
	for seq := uint32(1); seq < 40; seq += 2 {
		if _, err := call(seq, "slow", 5*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("call %d returned %v, want ErrTimeout", seq, err)
		}
		app.release <- struct{}{} // answered now, after its caller gave up
		rep, err := call(seq+1, "fast", 5*time.Second)
		if err != nil {
			t.Fatalf("call %d: %v", seq+1, err)
		}
		if got := cdr.NewReader(rep.Result, rep.ResultOrder).ReadString(); got != "fast" || rep.RequestID != seq+1 {
			t.Fatalf("call %d was handed %q for request %d, the timed-out call's response", seq+1, got, rep.RequestID)
		}
	}

	h := Header{ClientID: 8, SrcGroup: grpServer, DstGroup: grpClient}
	for reused, seq := false, uint32(1); !reused; seq++ {
		if seq == 1000 {
			t.Fatal("a released waiter was never reused")
		}
		h.Op.ChildSeq = seq
		w := acquireWaiter()
		w.call.key, w.call.done = h.key(), w
		client.pending.register(&w.call)
		respond(t, client, h, "n00", 1) // the caller's timer has fired
		client.Release(&w.call)
		releaseWaiter(w)
		next := acquireWaiter()
		reused = next == w
		select {
		case res := <-next.ch:
			t.Fatalf("a reused waiter holds %x, the response to the call that gave it back", res.raw)
		default:
		}
		if c := next.call; c.next != nil || c.done != nil || c.votesNeeded != 0 || c.votes != nil {
			t.Fatalf("a reused waiter's call kept state: %+v", c)
		}
		releaseWaiter(next)
	}
}

// TestStopCompletesRegisteredCalls: Stop completes a call still awaiting
// its response with ErrStopped at once, not at its timeout, and registers
// none after it.
func TestStopCompletesRegisteredCalls(t *testing.T) {
	d := newDomain(t, 2)
	d.mustCreate(grpServer, Active, testKeyStr)
	d.mustCreate(grpClient, Active, "")
	app := &gateApp{release: make(chan struct{})}
	d.mustJoin(d.ids[0], grpServer, app)
	d.mustJoin(d.ids[1], grpClient, nil)
	t.Cleanup(func() { close(app.release) })
	client := d.rms[d.ids[1]]
	if err := client.WaitForMembers(grpServer, 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	call := func(seq uint32, op string) error {
		_, err := client.Invoke(grpClient, 7, grpServer, OperationID{ChildSeq: seq}, giop.Request{
			RequestID: seq, ResponseExpected: true, ObjectKey: []byte(testKeyStr), Operation: op,
		}, time.Minute)
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- call(1, "slow") }()
	for deadline := time.Now().Add(5 * time.Second); client.PendingCalls() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the call was never registered")
		}
	}
	client.Stop()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("a call registered at Stop returned %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a call registered at Stop was not completed")
	}
	if err := call(2, "fast"); !errors.Is(err, ErrStopped) {
		t.Fatalf("a call after Stop returned %v, want ErrStopped", err)
	}
}

// TestEveryWaiterOnAnOperationIsResolved: the rare second waiter on an
// operation hangs off the first; a response resolves all of them, a waiter
// that gave up in between is unlinked wherever it stands, and nothing is
// left pending.
func TestEveryWaiterOnAnOperationIsResolved(t *testing.T) {
	d := newDomain(t, 1)
	d.mustCreate(grpClient, Active, "")
	d.mustJoin(d.ids[0], grpClient, nil)
	m := d.rms[d.ids[0]]
	h := Header{ClientID: 7, SrcGroup: grpServer, DstGroup: grpClient}
	for _, gaveUp := range []int{-1, 0, 1, 2} {
		h.Op.ChildSeq++
		var calls []*waiter
		for range 3 {
			w := acquireWaiter()
			w.call.key, w.call.done = h.key(), w
			m.pending.register(&w.call)
			calls = append(calls, w)
		}
		if gaveUp >= 0 {
			m.Release(&calls[gaveUp].call)
		}
		want := len(calls)
		if gaveUp >= 0 {
			want--
		}
		if got := m.PendingCalls(); got != want {
			t.Fatalf("waiter %d gave up: %d calls pending, want %d", gaveUp, got, want)
		}
		reply := respond(t, m, h, "n00", 0x5A)
		for i, c := range calls {
			if i == gaveUp {
				continue
			}
			select {
			case res := <-c.ch:
				if !bytes.Equal(res.raw, reply) {
					t.Fatalf("waiter %d of %d got %x, want %x", i, len(calls), res.raw, reply)
				}
			default:
				t.Fatalf("waiter %d gave up: waiter %d was not resolved", gaveUp, i)
			}
			m.Release(&c.call)
		}
		if n := m.PendingCalls(); n != 0 {
			t.Fatalf("waiter %d gave up: %d calls left pending", gaveUp, n)
		}
	}
}

// TestServantFailureLeavesTheExecutorClean: a replica's executor hands its
// servant one reader and one writer, reset for every invocation. A servant
// that fails mid-read or mid-write leaves the next invocation a reader at
// position 0 without an error, a writer holding the reply's head and
// nothing of the failed result, and a reply that is its own alone.
func TestServantFailureLeavesTheExecutorClean(t *testing.T) {
	d := newDomain(t, 2)
	app := &cleanApp{}
	d.mustCreate(grpServer, Active, testKeyStr)
	d.mustCreate(grpClient, Active, "")
	d.mustJoin(d.ids[0], grpServer, app)
	d.mustJoin(d.ids[1], grpClient, nil)
	client := d.rms[d.ids[1]]
	if err := client.WaitForMembers(grpServer, 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for i, op := range []string{"midread", "check", "midwrite", "check", "midread", "midwrite", "check"} {
		rep, err := invokeAsClient(t, client, grpClient, 7, grpServer, uint32(i+1), op, octets([]byte("abc")))
		if err != nil {
			t.Fatalf("%d %s: %v", i, op, err)
		}
		if op != "check" {
			if rep.Status != giop.ReplySystemException {
				t.Fatalf("%d %s: status %v, want a system exception", i, op, rep.Status)
			}
			continue
		}
		r := cdr.NewReader(rep.Result, rep.ResultOrder)
		if got := r.ReadOctetSeq(); rep.Status != giop.ReplyNoException || string(got) != "abc" || r.Remaining() != 0 {
			t.Fatalf("%d %s: status %v, result %x (%q, %d bytes more): %v", i, op, rep.Status, rep.Result, got, r.Remaining(), app.dirty)
		}
	}
}

// cleanApp fails on "midread" and "midwrite" halfway through, and on
// "check" records what is wrong with the reader and writer it was handed.
type cleanApp struct {
	regApp
	head  int // the writer's length at the first check: the reply's head
	dirty error
}

func (a *cleanApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	switch op {
	case "midread":
		args.ReadOctetSeq()
		args.ReadOctetSeq() // past the end
		return args.Err()
	case "midwrite":
		reply.WriteString("half a result")
		return errors.New("failed while writing")
	}
	if a.head == 0 {
		a.head = reply.Len()
	}
	switch {
	case args.Pos() != 0 || args.Err() != nil:
		a.dirty = fmt.Errorf("reader at %d, err %v", args.Pos(), args.Err())
	case reply.Len() != a.head || reply.Err() != nil:
		a.dirty = fmt.Errorf("writer holds %d bytes, not the head's %d, err %v", reply.Len(), a.head, reply.Err())
	}
	reply.WriteOctetSeq(args.ReadOctetSeq())
	return a.dirty
}
