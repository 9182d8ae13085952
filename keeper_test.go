package eternalgw_test

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"eternalgw/internal/cdr"
	"eternalgw/internal/experiments"
	"eternalgw/internal/memnet"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/slab"
	"eternalgw/internal/totem"
	"eternalgw/internal/udpnet"
)

// receiveChunk is the size of the chunks a receiver carves what it
// receives out of — a UDP endpoint's payloads, a gateway's requests — and
// carvedMost the longest it carves.
const (
	receiveChunk = slab.ByteChunk
	carvedMost   = receiveChunk / 4
)

// rxTap is a processor's UDP endpoint that notes, weakly, every payload
// it receives from a peer, with how many bytes of carved payloads it had
// received by then: whether one is still reachable is the question, and
// the tap must not be the answer. Its goroutine holds the last packet it
// passed on, no more.
type rxTap struct {
	*udpnet.Endpoint
	in     chan memnet.Packet
	mu     sync.Mutex
	got    []tappedRx
	bytes  int
	marked int // bytes at the mark
}

type tappedRx struct {
	at   weak.Pointer[byte]
	upTo int // carved bytes received up to and including this payload
}

func newRxTap(t *testing.T, ep *udpnet.Endpoint) *rxTap {
	r := &rxTap{Endpoint: ep, in: make(chan memnet.Packet, 4096)}
	quit := make(chan struct{})
	t.Cleanup(func() { close(quit) })
	go func() {
		for {
			select {
			case p := <-ep.Recv():
				if p.From != ep.ID() && len(p.Payload) > 0 {
					r.note(p.Payload)
				}
				select {
				case r.in <- p:
				case <-quit:
					return
				}
			case <-quit:
				return
			}
		}
	}()
	return r
}

func (r *rxTap) Recv() <-chan memnet.Packet { return r.in }

func (r *rxTap) note(b []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(b) <= carvedMost {
		r.bytes += len(b)
	}
	r.got = append(r.got, tappedRx{weak.Make(&b[0]), r.bytes})
}

// mark notes how far the endpoint has received.
func (r *rxTap) mark() {
	r.mu.Lock()
	r.marked = r.bytes
	r.mu.Unlock()
}

// beyond reports whether the endpoint has carved a chunk's worth since
// the mark: the chunk it carved from at the mark has been replaced.
func (r *rxTap) beyond() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes-r.marked > receiveChunk
}

// kept counts the payloads received a chunk's worth before the mark that
// are still reachable: they lie in a chunk the endpoint no longer carves
// from, so only a holder above it can keep them.
func (r *rxTap) kept() (kept, before int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.got {
		if p.upTo > r.marked-receiveChunk {
			break
		}
		before++
		if p.at.Value() != nil {
			kept++
		}
	}
	return kept, before
}

// echo makes n 64 B echo calls on conn.
func echo(t *testing.T, conn *orb.Conn, n int) {
	t.Helper()
	args := experiments.OctetSeqArg(make([]byte, 64))
	for i := 0; i < n; i++ {
		if _, err := conn.Call([]byte(benchKey), "echo", args, orb.InvokeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNoKeeperHoldsAReceiveChunk: a UDP endpoint carves each payload it
// receives out of a chunk of its receive slab, and four keepers above it
// may hold one past its transit (DESIGN.md section 7): totem until it is
// stable, a replica's recovery log until its next checkpoint, the
// gateway record until its window or the client's departure lets go, and
// a call until it is released. In the udp_ring_ladder shape over
// loopback UDP, a client makes 1500 calls and leaves, and a second
// client's calls then carry every keeper past it — stable, checkpoints,
// the departure — until every endpoint has carved a chunk's worth more.
// Every payload a processor received a chunk's worth before that mark
// must then become unreachable.
func TestNoKeeperHoldsAReceiveChunk(t *testing.T) {
	var mu sync.Mutex
	var taps []*rxTap
	d, conn := budgetDomainVia(t, true, nil, replication.Active, func(ep *udpnet.Endpoint) totem.Transport {
		tap := newRxTap(t, ep)
		mu.Lock()
		taps = append(taps, tap)
		mu.Unlock()
		return tap
	}, nil)
	echo(t, conn, 1500)
	gwNode := d.Node(3).RM
	departed := gwNode.Stats().ClientsDeparted
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for gwNode.Stats().ClientsDeparted == departed {
		if time.Now().After(deadline) {
			t.Fatal("the gateway's processor never heard of the client's departure")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, tap := range taps {
		tap.mark()
	}
	second, err := orb.Dial(d.Gateways()[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	// Past two checkpoints of every replica, and a chunk's worth at
	// every endpoint.
	for calls := 0; ; calls += 50 {
		moved := 0
		for _, tap := range taps {
			if tap.beyond() {
				moved++
			}
		}
		if calls >= 4*32 && moved == len(taps) {
			break
		}
		if calls > 5000 {
			t.Fatalf("%d of %d endpoints carved a chunk's worth in %d calls", moved, len(taps), calls)
		}
		echo(t, second, 50)
	}

	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		held, seen := 0, 0
		for _, tap := range taps {
			kept, before := tap.kept()
			held += kept
			seen += before
		}
		if seen < 1500 {
			t.Fatalf("%d payloads received before the mark: the test shows nothing", seen)
		}
		if held == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d payloads received a chunk's worth before the mark are still reachable: a keeper holds a receive chunk", held, seen)
		}
		echo(t, second, 10) // stable and the tables move on
		time.Sleep(20 * time.Millisecond)
	}
}

// liveHeap is the live heap after a collection.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// quietClients dials n connections to addr and makes one 64 B call on
// each, the busy connection's calls behind each, and leaves them open.
func quietClients(t *testing.T, addr string, n int, busy *orb.Conn, behind int) {
	t.Helper()
	for range n {
		c, err := orb.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		echo(t, c, 1)
		echo(t, busy, behind)
	}
}

// TestQuietUDPClientsPinABoundedHeap is replication's
// TestQuietClientsPinABoundedHeap over loopback UDP in ring mode, the
// udp_ring_ladder shape. There a reply that travelled alone, which the
// gateway record keeps by reference (retain), lies in a region of the
// chunk the gateway processor's endpoint carved it from, and the record's
// worst case is the quiet client (DESIGN.md section 8): one call, then
// nothing, while others' traffic carves past the chunk its reply lies in,
// so that its entry alone pins that chunk. Here quiet clients connect and
// stay connected in two rounds of as many calls. In the first each calls
// right behind the one before, so that their replies share chunks, and
// another client's calls follow; in the second each call has 48 of that
// client's behind it, tens of KiB of traffic at the endpoint, so that
// an entry pins the whole of its chunk, however long a chunk is. The
// second round's live heap may have grown by no more than the first's
// and a chunk for each reply the record keeps, and 1 MiB besides.
func TestQuietUDPClientsPinABoundedHeap(t *testing.T) {
	const (
		quiet  = 48
		behind = 48
	)
	d, busy := budgetDomain(t, true, nil)
	addr := d.Gateways()[0].Addr()
	rm := d.Node(3).RM
	echo(t, busy, 600) // the busy client's shard of the record is full

	before := liveHeap()
	quietClients(t, addr, quiet, busy, 0)
	echo(t, busy, quiet*behind) // the replicas' tables grow alike in each round
	dense := liveHeap() - before
	recorded, _, _ := rm.RecordedReplies()

	before = liveHeap()
	quietClients(t, addr, quiet, busy, behind)
	sparse := liveHeap() - before
	kept, _, _ := rm.RecordedReplies()
	kept -= recorded
	if kept < quiet*3/4 {
		t.Fatalf("the record keeps %d of the second round's %d replies: the test shows nothing", kept, quiet)
	}

	bound := dense + int64(kept*slab.ByteChunk) + 1<<20
	t.Logf("%d quiet clients: the live heap grew %d KiB with their replies in shared chunks, %d KiB with each apart (%d B a client more; %d replies kept), bound %d KiB",
		quiet, dense>>10, sparse>>10, (sparse-dense)/quiet, kept, bound>>10)
	if sparse > bound {
		t.Errorf("the live heap grew %d KiB, bound %d KiB: a quiet client's entry pins more than a chunk", sparse>>10, bound>>10)
	}
}

// argsApp is a register servant that notes, weakly, where the arguments
// of each call lie: on memnet a replica reads an invocation in the buffer
// the gateway read the request into, a region of the gateway's slab.
type argsApp struct {
	experiments.RegisterApp
	mu   sync.Mutex
	args []weak.Pointer[byte] // by the order the servant ran in
}

func (a *argsApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	peek := *args
	if b := peek.ReadOctetSeq(); len(b) > 0 {
		a.mu.Lock()
		a.args = append(a.args, weak.Make(&b[0]))
		a.mu.Unlock()
	}
	return a.RegisterApp.Invoke(op, args, reply)
}

// reachable counts, among the first n calls the servant ran, those whose
// arguments are still reachable.
func (a *argsApp) reachable(n int) (held int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, w := range a.args[:n] {
		if w.Value() != nil {
			held++
		}
	}
	return held
}

func (a *argsApp) ran() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.args)
}

// TestNoKeeperHoldsARequestChunk: the gateway reads each request of
// every connection into a region of its one slab, which is the buffer the
// request is multicast from and, on memnet, the one every processor
// delivers, so totem, the replicas' logs and the call hold it (DESIGN.md
// section 7); a connection holds none once it has handed its request on.
// In the small_rtt shape, a client makes 1500 calls and stays connected,
// idle, and so do 64 more after one call each, while a second client's
// calls carry totem's stable point and every replica's checkpoints past
// them and the gateway carves a chunk's worth past them. Every one of
// those requests must then become unreachable.
func TestNoKeeperHoldsARequestChunk(t *testing.T) {
	const (
		calls = 1500
		idle  = 64
	)
	var mu sync.Mutex
	var apps []*argsApp
	d, conn := budgetDomainVia(t, false, nil, replication.Active, nil, func() replication.Application {
		a := &argsApp{}
		mu.Lock()
		apps = append(apps, a)
		mu.Unlock()
		return a
	})
	echo(t, conn, calls)
	addr := d.Gateways()[0].Addr()
	for range idle {
		c, err := orb.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		echo(t, c, 1)
	}
	second, err := orb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	// Past four checkpoints, and requests of more than 64 bytes each
	// fill more than a chunk.
	echo(t, second, 4*32)
	released := calls + idle
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		held := 0
		mu.Lock()
		for _, a := range apps {
			if a.ran() < released {
				mu.Unlock()
				t.Fatalf("a replica ran %d of the idle clients' %d calls", a.ran(), released)
			}
			held += a.reachable(released)
		}
		mu.Unlock()
		if held == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests' chunks still reachable after every keeper let go of them", held, len(apps)*released)
		}
		echo(t, second, 10)
		time.Sleep(20 * time.Millisecond)
	}
}

// syncApp is the demo servant noting, weakly, where each state it is
// handed lies: at a warm-passive backup, in the sync's datagram, which
// the backup decodes in place.
type syncApp struct {
	experiments.RegisterApp
	mu     sync.Mutex
	states []weak.Pointer[byte] // by the order the states were adopted in
}

func (a *syncApp) SetState(state []byte) error {
	if len(state) > 0 {
		a.mu.Lock()
		a.states = append(a.states, weak.Make(&state[0]))
		a.mu.Unlock()
	}
	return a.RegisterApp.SetState(state)
}

// TestNoKeeperHoldsAStateSync: a warm-passive primary multicasts a
// checkpoint every eight operations, and each backup adopts it from the
// datagram it was delivered in — the state borrowed, never kept: the
// application and the log copy what they keep (DESIGN.md section 7). In
// the failover_passive shape on memnet, the register holds 2 KiB, so
// each image is a buffer of its own and not a region of the primary's
// response chunk, which its operation table pins by the responses in it.
// The backups adopt eight syncs — the mark — and then a later one, and a
// few operations carry totem's stable point past it without another:
// every sync datagram the backups adopted, the last among them, must
// then become unreachable.
func TestNoKeeperHoldsAStateSync(t *testing.T) {
	var mu sync.Mutex
	var apps []*syncApp
	_, conn := budgetDomainVia(t, false, nil, replication.WarmPassive, nil, func() replication.Application {
		a := &syncApp{}
		mu.Lock()
		apps = append(apps, a)
		mu.Unlock()
		return a
	})
	// adopted counts the states the backups adopted, and reachable those
	// of them still reachable.
	count := func(reachable bool) (n int) {
		mu.Lock()
		defer mu.Unlock()
		for _, a := range apps {
			a.mu.Lock()
			for _, w := range a.states {
				if !reachable || w.Value() != nil {
					n++
				}
			}
			a.mu.Unlock()
		}
		return n
	}
	await := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); count(false) < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the backups adopted %d states, want %d", count(false), want)
			}
		}
	}
	const backups, interval = 2, 8
	if _, err := conn.Call([]byte(benchKey), "set", experiments.OctetSeqArg(make([]byte, 2<<10)), orb.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	echo(t, conn, 8*interval-1)
	await(8 * backups)
	echo(t, conn, interval)
	await(9 * backups)
	echo(t, conn, interval/2)
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		held := count(true)
		if held == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of the %d states the backups adopted still reachable after they adopted later ones", held, count(false))
		}
		time.Sleep(20 * time.Millisecond)
	}
}
