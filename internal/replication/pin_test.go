package replication

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
	"weak"

	"eternalgw/internal/cdr"
	"eternalgw/internal/memnet"
	"eternalgw/internal/slab"
	"eternalgw/internal/totem"
)

// totemPacked is the kind octet a packed totem message starts with: a
// datagram that carries several payloads (totem's wire.go).
const totemPacked = 4

// packTap is a client member's transport that remembers, weakly, every
// packed datagram the member broadcasts: whether a pack is still
// reachable is the question, and the tap must not be the answer.
type packTap struct {
	*memnet.Endpoint
	mu    sync.Mutex
	packs []tappedPack
}

type tappedPack struct {
	at  weak.Pointer[byte]
	len int
}

func (p *packTap) Broadcast(datagram []byte) error {
	if len(datagram) > 0 && datagram[0] == totemPacked {
		p.mu.Lock()
		p.packs = append(p.packs, tappedPack{weak.Make(&datagram[0]), len(datagram)})
		p.mu.Unlock()
	}
	return p.Endpoint.Broadcast(datagram)
}

// tappedDomain is newDomain with the last of its n members' transport
// tapped, and each member's totem configuration handed to tweak, when it
// is set.
func tappedDomain(t *testing.T, n int, tweak func(*totem.Config)) (*domain, *packTap) {
	t.Helper()
	tap := &packTap{}
	d := buildDomain(t, n, func(id memnet.NodeID, ep *memnet.Endpoint) totem.Transport {
		if id != memnet.NodeID(fmt.Sprintf("n%02d", n-1)) {
			return ep
		}
		tap.Endpoint = ep
		return tap
	}, tweak)
	return d, tap
}

// pipeline makes ops appends on grpServer from the client member, callers
// at a time, each caller under a client identifier of its own from
// firstClient on, so that the token finds several waiting and they travel
// packed.
func pipeline(t *testing.T, client *Mechanisms, firstClient uint64, callers, ops int) {
	t.Helper()
	var left atomic.Int64
	left.Store(int64(ops))
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(clientID uint64) {
			defer wg.Done()
			for req := uint32(1); left.Add(-1) >= 0; req++ {
				if _, err := invokeAsClient(t, client, grpClient, clientID, grpServer, req, "append", octets([]byte("x"))); err != nil {
					t.Error(err)
					return
				}
			}
		}(firstClient + uint64(c))
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// TestPackedLogEntriesPinABoundedLog: the recovery log keeps a packed
// invocation by reference, a window onto the whole pack, and is cut at
// every checkpoint. So after many times checkpointInterval operations
// that travelled packed, each replica's log holds at most an interval's
// entries, and every pack none of them refers to — nor a buffered
// message, which the idle ring collects at stability — becomes
// unreachable: the cut let go of it, and so did the part list totem
// decoded it into. The premise is a ring that never reconfigures, so the
// members fail each other after a second (newSteadyDomain's timeout).
func TestPackedLogEntriesPinABoundedLog(t *testing.T) {
	const ops = 40*checkpointInterval + 7
	d, tap := tappedDomain(t, 4, func(c *totem.Config) { c.FailTimeout = time.Second })
	setupClientServer(t, d, Active, 3, 3)
	pipeline(t, d.rms[d.ids[3]], 1, 16, ops)

	tap.mu.Lock()
	packs := append([]tappedPack(nil), tap.packs...)
	tap.mu.Unlock()
	if len(packs) == 0 {
		t.Fatal("no invocation travelled packed: the test shows nothing")
	}
	replicas := d.ids[:3]
	for _, id := range replicas {
		if n := logLen(t, d.rms[id]); n > checkpointInterval {
			t.Errorf("%s: %d entries logged after %d operations, want at most checkpointInterval (%d)", id, n, ops, checkpointInterval)
		}
	}

	// pinned lists the packs still reachable that no log entry lies in.
	pinned := func() (pinned []int) {
		runtime.GC()
		var logged [][]byte
		for _, id := range replicas {
			_, entries, err := serverLog(t, d.rms[id]).Recover(uint32(grpServer))
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			for _, e := range entries {
				logged = append(logged, e.Data)
			}
		}
		for i, p := range packs {
			at := p.at.Value()
			if at == nil {
				continue
			}
			start := uintptr(unsafe.Pointer(at))
			kept := false
			for _, b := range logged {
				if data := uintptr(unsafe.Pointer(unsafe.SliceData(b))); data >= start && data < start+uintptr(p.len) {
					kept = true
				}
			}
			if !kept {
				pinned = append(pinned, i)
			}
			runtime.KeepAlive(at)
		}
		return pinned
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		p := pinned()
		if len(p) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d packs still reachable with no log entry in them (first: pack %d)", len(p), len(packs), p[0])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWarmBackupLogsStayWithinASync: a warm-passive backup logs what it
// is delivered, packed or not, by reference, and each sync from the
// primary cuts its log. Through a primary crash — the promoted backup
// replays its log — and the new primary's next syncs, every surviving
// replica's log is back within warmSyncInterval entries.
func TestWarmBackupLogsStayWithinASync(t *testing.T) {
	const before, after = 10*warmSyncInterval + 4, 4*warmSyncInterval + 3
	d, tap := tappedDomain(t, 4, nil)
	apps := setupClientServer(t, d, WarmPassive, 3, 3)
	client := d.rms[d.ids[3]]
	pipeline(t, client, 1, 16, before)
	tap.mu.Lock()
	packed := len(tap.packs)
	tap.mu.Unlock()
	if packed == 0 {
		t.Fatal("no invocation travelled packed: the test shows nothing")
	}

	d.net.Crash(d.ids[0])
	waitStat(t, func() uint64 { return d.rms[d.ids[1]].Stats().Failovers }, 1)
	pipeline(t, client, 100, 16, after)

	if _, ops := apps[1].snapshot(); ops != before+after {
		t.Fatalf("the new primary has run %d operations, want %d", ops, before+after)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range d.ids[1:3] {
		for n := logLen(t, d.rms[id]); n > warmSyncInterval; n = logLen(t, d.rms[id]) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d entries logged, want at most warmSyncInterval (%d)", id, n, warmSyncInterval)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// chunkApp is regApp that notes, weakly, where it writes each result: in
// a region of its replica's slab, so in the chunk of responses that region
// was carved from. Whether a chunk is still reachable is the question, and
// the servant must not be the answer.
type chunkApp struct {
	regApp
	mu      sync.Mutex
	regions []weak.Pointer[byte] // by the order the servant ran in
}

func (a *chunkApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	err := a.regApp.Invoke(op, args, reply)
	b := reply.Bytes()
	a.mu.Lock()
	a.regions = append(a.regions, weak.Make(&b[0]))
	a.mu.Unlock()
	return err
}

// ran counts the operations the servant has run.
func (a *chunkApp) ran() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.regions)
}

// reachable lists, among the first n operations the servant ran, those
// whose response chunk is still reachable.
func (a *chunkApp) reachable(n int) (ops []int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, w := range a.regions[:n] {
		if w.Value() != nil {
			ops = append(ops, i)
		}
	}
	return ops
}

// chunkDomain stands up a steady memnet domain of four with an active
// group of three servers whose servants are chunkApps, each replica's
// operation table bounded to capacity identifiers, and a client-only
// member of the client group on the fourth, whose processor keeps the
// gateway record.
func chunkDomain(t *testing.T, capacity int) (*domain, []*chunkApp) {
	t.Helper()
	d := newSteadyDomain(t, 4)
	d.mustCreate(grpServer, Active, testKeyStr)
	d.mustCreate(grpClient, Active, "")
	apps := make([]*chunkApp, 3)
	for i := range apps {
		apps[i] = &chunkApp{}
		d.mustJoin(d.ids[i], grpServer, apps[i])
	}
	d.mustJoin(d.ids[3], grpClient, nil)
	for _, n := range d.ids {
		if err := d.rms[n].WaitForMembers(grpServer, 3, 5*time.Second); err != nil {
			t.Fatalf("%s: members: %v", n, err)
		}
	}
	for _, id := range d.ids[:3] {
		boundTable(d.rms[id], grpServer, capacity, ReplyWindow)
	}
	return d, apps
}

// call makes one 64 B write on grpServer as the client clientID.
func call(t *testing.T, d *domain, clientID uint64, req uint32) {
	t.Helper()
	if _, err := invokeAsClient(t, d.rms[d.ids[3]], grpClient, clientID, grpServer, req, "set", octets(make([]byte, 64))); err != nil {
		t.Fatal(err)
	}
}

// waitRan waits until every servant has run n operations.
func waitRan(t *testing.T, apps []*chunkApp, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for i, a := range apps {
		for a.ran() < n {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d ran %d operations of %d", i, a.ran(), n)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// perChunk is the most responses a chunk of a replica's slab holds: each
// region is at least the two headers and replyStart.
const perChunk = slab.ByteChunk / (headerLen + replyStart)

// TestResponseChunksOutliveNoKeeper: a replica carves its responses out
// of chunks of its slab, and two keepers hold them past their transit —
// its operation table, which lets go of them in the order they were
// carved, and the gateway record on the client's processor, which keeps a
// response that travelled alone by reference (retain). With each replica's
// table bounded to 64 identifiers, one client makes 2000 calls; the record
// keeps the last 512 of them (the client's shard). Every chunk whose
// responses both have let go of — every response older than the last
// 512, and a chunk's worth more — must then become unreachable.
func TestResponseChunksOutliveNoKeeper(t *testing.T) {
	const (
		capacity = 64
		ops      = 2000
		recorded = answeredCapacity / pendingShards
	)
	d, apps := chunkDomain(t, capacity)
	for i := 1; i <= ops; i++ {
		call(t, d, 1, uint32(i))
	}
	waitRan(t, apps, ops)
	if n, _, _ := d.rms[d.ids[3]].RecordedReplies(); n != recorded {
		t.Fatalf("the record keeps %d responses, want %d: the test shows nothing", n, recorded)
	}
	released := ops - max(capacity, recorded) - perChunk
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		held, first := 0, -1
		for _, a := range apps {
			r := a.reachable(released)
			held += len(r)
			if len(r) > 0 && first < 0 {
				first = r[0]
			}
		}
		if held == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d responses' chunks still reachable after both keepers let go of them (first: operation %d)", held, 3*released, first+1)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestQuietClientsPinABoundedHeap is TestReplyWindowBoundsTheLiveHeap's
// 64 B companion, for what a carved response pins beyond its own bytes
// (DESIGN.md section 8). A replica's table lets go of its responses in
// the order it carved them, so it pins the regions of the responses it
// counts and one chunk more; the gateway record keeps a response by
// reference, so each of its entries pins at most a chunk. The record's
// worst case is the quiet client: one call, then nothing, while others'
// traffic fills the chunk its response lies in and carves past it. Here
// 256 quiet clients make one call each, a chunk's worth of another
// client's calls behind each, so that no two of their responses share a
// chunk at a replica; then that client makes 8000 more. The live heap may
// have grown by no more than the replicas' tables, each entry of the
// record a chunk, and every identifier the processors remember — 128
// bytes each, map slot included — and 2 MiB besides.
func TestQuietClientsPinABoundedHeap(t *testing.T) {
	const (
		capacity = 256
		quiet    = 256
		ops      = 8000
	)
	d, apps := chunkDomain(t, capacity)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	req := uint32(0)
	for q := range quiet {
		call(t, d, 1000+uint64(q), 1)
		for range perChunk {
			req++
			call(t, d, 1, req)
		}
	}
	for range ops {
		req++
		call(t, d, 1, req)
	}
	waitRan(t, apps, quiet+int(req))

	recorded, _, _ := d.rms[d.ids[3]].RecordedReplies()
	if recorded < quiet {
		t.Fatalf("the record keeps %d responses, fewer than the %d quiet clients': the test shows nothing", recorded, quiet)
	}
	identifiers := 0
	for _, id := range d.ids {
		_, _, answered := d.rms[id].RecordedReplies()
		identifiers += answered
		for _, u := range d.rms[id].DedupOccupancy() {
			identifiers += u.Entries
		}
	}
	region := d.rms[d.ids[0]].room + headerLen + replyStart
	tables := 3 * (capacity*region + slab.ByteChunk)
	bound := tables + recorded*slab.ByteChunk + identifiers*128 + 2<<20

	var after runtime.MemStats
	for range 3 {
		runtime.GC()
		if runtime.ReadMemStats(&after); after.HeapAlloc <= before.HeapAlloc+uint64(bound) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("after %d quiet clients and %d calls of 64 B: the live heap grew %d KiB, bound %d KiB (tables %d KiB, %d recorded responses, %d identifiers)",
		quiet, req, grown>>10, bound>>10, tables>>10, recorded, identifiers)
	if grown > int64(bound) {
		t.Errorf("the live heap grew %d KiB, bound %d KiB: a chunk of responses outlives what it holds", grown>>10, bound>>10)
	}
}
