package totem

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
	"weak"

	"eternalgw/internal/memnet"
	"eternalgw/internal/slab"
)

// within reports whether b's bytes lie inside region's backing array, up
// to its capacity.
func within[T any](region, b []T) bool {
	if cap(region) == 0 || cap(b) == 0 {
		return false
	}
	var zero T
	size := unsafe.Sizeof(zero)
	start := uintptr(unsafe.Pointer(unsafe.SliceData(region)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return at >= start && at+uintptr(cap(b))*size <= start+uintptr(cap(region))*size
}

// overlap reports whether a's and b's backing regions, up to their
// capacities, share a byte.
func overlap(a, b []byte) bool {
	as, bs := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return as < bs+uintptr(cap(b)) && bs < as+uintptr(cap(a))
}

// controlFrames encodes one datagram of each kind that carries no payload
// with ids of the given length, on frames.
func controlFrames(frames *slab.Slab[byte], idLen int) map[string][]byte {
	id := memnet.NodeID(strings.Repeat("x", idLen))
	other := memnet.NodeID(strings.Repeat("y", idLen+1))
	members := []memnet.NodeID{id, other, "z"}
	return map[string][]byte{
		"ack":     encodeAck(ackMsg{RingID: 7, Sender: id, Aru: 800, Nak: []uint64{801, 803, 805}}, frames),
		"token":   encodeToken(token{RingID: 3, TokenID: 9, Seq: 40, Aru: 30, Stable: 20, Succ: id, Rtr: []rtrEntry{{Seq: 31, Age: 1}, {Seq: 33}}, Skip: []uint64{21}}, frames),
		"commit":  encodeToken(token{RingID: 4, TokenID: 2, Succ: other, Members: members, Entries: []commitEntry{{Filled: true, Last: ringRef{ID: 3, Low: id}, Majority: 3, Highest: 40, Aru: 30}, {}, {Last: ringRef{ID: 2, Low: other}}}}, frames),
		"ref":     encodeBatch(batchMsg{RingID: 3, Seq: 41, Leader: id, Origin: other, OriginFwd: 5, Stable: 30, Ref: true}, nil, frames),
		"promote": encodePromote(promoteMsg{RingID: 3, Leader: id, StartSeq: 40, Stable: 30, Seq: 41}, frames),
		"join":    encodeJoin(joinMsg{Sender: id, Alive: members, RingID: 4}, frames),
	}
}

// TestSlabCarvesDisjointClippedRegions: the datagrams a core sends that
// carry no payload lie in its slab's chunk, none overlaps another, each is
// clipped to what it holds and is the bytes its fields encode to. That a
// region's append leaves its neighbours as they were is the slab's own
// test (internal/slab).
func TestSlabCarvesDisjointClippedRegions(t *testing.T) {
	frames := slab.New[byte](frameChunk)
	got := controlFrames(&frames, 3)
	want := controlFrames(nil, 3)
	for kind, f := range got {
		if !bytes.Equal(f, want[kind]) {
			t.Errorf("%s: carved %x, want %x", kind, f, want[kind])
		}
		if !within(frames.Chunk(), f) {
			t.Errorf("%s: not carved from the slab's chunk", kind)
		}
		if cap(f) != len(f) {
			t.Errorf("%s: capacity %d behind %d bytes", kind, cap(f), len(f))
		}
		for other, g := range got {
			if other != kind && overlap(f, g) {
				t.Errorf("%s and %s overlap", kind, other)
			}
		}
	}
}

// TestSlabReplacesAFullChunk: a core's part lists are carved by the rule
// its datagrams are (internal/slab): a list past a full chunk of
// partChunk headers is carved from a new one.
func TestSlabReplacesAFullChunk(t *testing.T) {
	lists := slab.New[[]byte](partChunk)
	a := lists.Carve(partChunk / 4)
	for range 3 {
		lists.Carve(partChunk / 4)
	}
	b := lists.Carve(1)
	if within(lists.Chunk(), a) || !within(lists.Chunk(), b) {
		t.Fatal("a part list past a full chunk was not carved from a new one")
	}
}

// TestOversizedAndNilSlabsMakeTheirOwn: a token with a long
// retransmission list is past a quarter of a chunk, so it is a buffer of
// its own, encoded as a nil slab's would be.
func TestOversizedAndNilSlabsMakeTheirOwn(t *testing.T) {
	frames := slab.New[byte](frameChunk)
	frames.Carve(8)
	long := token{RingID: 1, TokenID: 2, Succ: "n01", Rtr: make([]rtrEntry, maxRtr)}
	if f := encodeToken(long, &frames); within(frames.Chunk(), f) || !bytes.Equal(f, encodeToken(long, nil)) {
		t.Fatal("a token past a quarter of a chunk was carved, or encoded wrong")
	}
	if len(frames.Chunk()) != 8 {
		t.Fatal("a token past a quarter of a chunk moved the chunk on")
	}
}

// TestControlFramesFitTheirRegions: each encoder's region is no shorter
// than what its fields encode to, alignment padding at its worst, whatever
// the ids' lengths: a datagram that outgrew its region would be a second
// allocation, and a hole in the chunk.
func TestControlFramesFitTheirRegions(t *testing.T) {
	for idLen := 0; idLen <= 17; idLen++ {
		frames := slab.New[byte](1 << 20)
		for kind, f := range controlFrames(&frames, idLen) {
			if !within(frames.Chunk(), f) {
				t.Errorf("ids of %d bytes: the %s outgrew its region (%d bytes)", idLen, kind, len(f))
			}
		}
		for naks := 0; naks <= maxNaks; naks += 9 {
			a := ackMsg{RingID: 1, Sender: memnet.NodeID(strings.Repeat("a", idLen)), Aru: 1, Nak: make([]uint64, naks)}
			if f := encodeAck(a, &frames); !within(frames.Chunk(), f) {
				t.Errorf("ids of %d bytes: an ack with %d naks outgrew its region", idLen, naks)
			}
		}
	}
}

// TestPayloadBearingEncodersNeverCarve: a regular message, a pack, a
// forward and a full-form batch are framed in the sender's buffer or built
// in one of their own. None but the batch's encoder can be given a slab,
// which it has for the by-reference form, and the full form leaves it
// untouched.
func TestPayloadBearingEncodersNeverCarve(t *testing.T) {
	payload := []byte("payload")
	frames := slab.New[byte](frameChunk)
	frames.Carve(1)
	chunk := frames.Chunk()
	full := batchMsg{RingID: 1, Seq: 2, Leader: "n00", Origin: "n00", OriginFwd: 3, Stable: 1, Payload: payload}
	built := map[string][]byte{
		"regular": encodeRegular(regularMsg{RingID: 1, Seq: 2, Sender: "n00", Payload: payload}, nil),
		"packed":  encodeRegular(regularMsg{RingID: 1, Seq: 2, Sender: "n00", Parts: [][]byte{payload, payload}}, nil),
		"forward": encodeForward(forwardMsg{RingID: 1, Sender: "n00", FwdSeq: 3, Payload: payload}, nil),
		"batch":   encodeBatch(full, nil, &frames),
	}
	for kind, d := range built {
		if within(chunk, d) {
			t.Errorf("%s: carved from the slab", kind)
		}
	}
	if len(frames.Chunk()) != 1 || unsafe.SliceData(frames.Chunk()) != unsafe.SliceData(chunk) {
		t.Error("a full-form batch carved from the slab")
	}

	// Framed in place (frame_test.go has the other kinds), the full form is
	// the sender's buffer, whatever slab it is given.
	const room = 64
	own := append(make([]byte, room), payload...)
	b := full
	b.Payload = own[room:]
	if d := encodeBatch(b, own[room-len(encodeBatch(batchMsg{Leader: "n00", Origin: "n00"}, nil, nil)):], &frames); !within(own, d) {
		t.Error("a full-form batch framed in place is not the sender's buffer")
	}
	if len(frames.Chunk()) != 1 {
		t.Error("a full-form batch framed in place carved from the slab")
	}
}

// carveAudit wraps every core of v so that each datagram it broadcasts is
// checked against its slab as it goes: one that carries no payload lies in
// the core's chunk (unless it is too long to be carved), and one that
// carries payloads does not. It returns the counts of each.
func carveAudit(t *testing.T, v *vnet) (control, payload *int) {
	control, payload = new(int), new(int)
	for _, id := range v.ids {
		c := v.cores[id]
		send := c.broadcast
		c.broadcast = func(d []byte) {
			carried := true
			switch d[0] {
			case kindToken, kindJoin, kindAck, kindPromote:
				carried = false
			case kindBatch:
				b, err := decodeBatch(cdrSkipKind(d), nil, nil)
				carried = err != nil || !b.Ref
			}
			switch in := within(c.frames.Chunk(), d); {
			case carried && in:
				t.Errorf("%s: a datagram of kind %d that carries payloads was carved from the slab", id, d[0])
			case carried:
				*payload++
			case !in && len(d) <= frameChunk/8:
				t.Errorf("%s: a datagram of kind %d (%d bytes) that carries no payload was not carved", id, d[0], len(d))
			case in:
				*control++
			}
			send(d)
		}
	}
	return control, payload
}

// TestOnlyControlDatagramsAreCarved runs four cores in each ordering mode
// under load and loss, so that tokens, joins, acks, promotes and
// by-reference batches go out beside regular messages, packs, forwards,
// full-form batches and retransmissions, and checks every datagram as it
// is broadcast (carveAudit).
func TestOnlyControlDatagramsAreCarved(t *testing.T) {
	for _, mode := range []OrderingMode{OrderingRing, OrderingLeader} {
		t.Run(fmt.Sprint("ordering=", mode), func(t *testing.T) {
			v := newVnet(t, 4, 7, func(c *Config) { c.Ordering = mode }, memnet.WithLoss(0.02))
			control, payload := carveAudit(t, v)
			v.load(2*time.Millisecond, v.ids...)
			v.run(500*time.Millisecond, nil)
			v.feed = nil
			v.settle(2 * time.Second)
			if *control < 100 || *payload < 100 {
				t.Fatalf("%d datagrams carried no payload and %d did: the run shows nothing", *control, *payload)
			}
			if n := v.ledger.count(kindAck, kindPromote); mode == OrderingLeader && n == 0 {
				t.Fatal("no epoch: the leader mode's datagrams were never sent")
			}
		})
	}
}

// TestControlDatagramsAllocateNothing: a leader-mode sequencer ordering
// another member's forwards by reference and heartbeating, a follower
// acking, a ring-mode member taking and passing the token, and a gathering
// one repeating its join allocate, on average, next to nothing per
// datagram: a chunk now and then. Each of them built in a buffer of its
// own costs one allocation.
func TestControlDatagramsAllocateNothing(t *testing.T) {
	const most = 0.05
	now := time.Unix(1000, 0)
	sent := 0
	newCore := func(id memnet.NodeID, mode OrderingMode, ring ...memnet.NodeID) *Core {
		cfg := fastConfig()
		cfg.ID, cfg.Members, cfg.Ordering = id, ring, mode
		c := NewCore(cfg, now, func([]byte) { sent++ }, func(Event) {})
		c.now = now
		c.ring, c.ringID, c.ids = ring, 1, newIDTable(ring)
		return c
	}

	// The sequencer's ring is itself alone, so each batch is stable at once
	// and gc keeps its tables at one entry.
	seq := newCore("v00", OrderingLeader, "v00")
	seq.promote(token{RingID: 1})
	follower := newCore("v01", OrderingLeader, "v00", "v01")
	follower.adoptLeader("v00", 0, 0)
	payload := []byte("p")
	fwd := uint64(0)
	sent = 0
	perRun := testing.AllocsPerRun(2000, func() {
		fwd++
		seq.order("v01", fwd, payload, nil, nil)
		seq.leaderHeartbeat()
		follower.sendAck(true)
	})
	if got := perRun / 3; got > most || sent < 3*2000 {
		t.Errorf("leader mode: %.3f allocations per by-reference batch, promote and ack (%d sent), want at most %v", got, sent, most)
	}
	if seq.fp.leader != "v00" || seq.refN.Load() < 2000 {
		t.Fatalf("the sequencer left its epoch, or ordered %d by reference", seq.refN.Load())
	}

	// A ring member takes each token in and passes it on at its hold's end.
	ring := newCore("v01", OrderingRing, "v00", "v01")
	tokens := make([][]byte, 2002)
	for i := range tokens {
		tokens[i] = encodeToken(token{RingID: 1, TokenID: uint64(2 * (i + 1)), Succ: "v01"}, nil)
	}
	next := 0
	sent = 0
	perToken := testing.AllocsPerRun(2000, func() {
		now = now.Add(time.Millisecond)
		ring.Receive(now, tokens[next], 0)
		next++
		ring.Tick(now.Add(ring.cfg.IdleHold), 0)
	})
	if perToken > most || sent < 2000 || ring.tokenPassN.Load() < 2000 {
		t.Errorf("ring mode: %.3f allocations per token passed (%d passed), want at most %v", perToken, ring.tokenPassN.Load(), most)
	}

	// A gathering member repeats its join.
	gather := newCore("v02", OrderingRing, "v00", "v01", "v02")
	gather.alive = gather.ring
	sent = 0
	if perJoin := testing.AllocsPerRun(2000, gather.sendJoin); perJoin > most || sent < 2000 {
		t.Errorf("gather: %.3f allocations per join (%d sent), want at most %v", perJoin, sent, most)
	}
}

// controlTap is a member's transport that remembers, weakly, every datagram
// the member broadcasts that carries no payload, with how many bytes of
// such datagrams it had broadcast by then: whether one is still reachable
// is the question, and the tap must not be the answer.
type controlTap struct {
	Transport
	mu     sync.Mutex
	frames []tappedFrame
	bytes  int
	marked int // bytes at the mark
}

type tappedFrame struct {
	at   weak.Pointer[byte]
	kind byte
	upTo int // control bytes broadcast up to and including this one
}

func (c *controlTap) Broadcast(d []byte) error {
	switch d[0] {
	case kindToken, kindJoin, kindAck, kindPromote:
		c.mu.Lock()
		c.bytes += len(d)
		c.frames = append(c.frames, tappedFrame{weak.Make(&d[0]), d[0], c.bytes})
		c.mu.Unlock()
	}
	return c.Transport.Broadcast(d)
}

// mark notes how far the member has broadcast.
func (c *controlTap) mark() {
	c.mu.Lock()
	c.marked = c.bytes
	c.mu.Unlock()
}

// kept lists the datagrams of the tap that are still reachable although
// the member has broadcast more than a chunk's worth since: their chunk
// has been replaced, so only a holder other than the core can keep it.
// beyond reports whether everything up to the mark is among them.
func (c *controlTap) kept() (kept []tappedFrame, beyond bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.frames {
		if c.bytes-f.upTo > frameChunk && f.at.Value() != nil {
			kept = append(kept, f)
		}
	}
	return kept, c.bytes-c.marked > frameChunk
}

// TestNoReceiverKeepsAControlDatagram: the datagrams a core sends that
// carry no payload share its slab's chunks, so one that a receiver or a
// transport kept past its transit would keep its whole chunk. A leader-mode
// ring of three on memnet orders a few hundred payloads — forwards, the
// sequencer's by-reference batches and heartbeats, the followers' acks —
// and then loses a follower to a partition, so that it and the others go
// on through a gather and a new epoch on each side, where the lost one
// sends no ack, carving past the chunks of what they sent before. Every
// control datagram a member sent more than a chunk's worth ago must then
// become unreachable.
func TestNoReceiverKeepsAControlDatagram(t *testing.T) {
	taps := map[memnet.NodeID]*controlTap{}
	var mu sync.Mutex
	c := newClusterCfg(t, 3, func(cfg *Config) {
		cfg.Ordering = OrderingLeader
		tap := &controlTap{Transport: cfg.Endpoint}
		mu.Lock()
		taps[cfg.ID] = tap
		mu.Unlock()
		cfg.Endpoint = tap
	})
	for _, id := range c.ids {
		c.waitConfig(id, 3)
	}
	c.waitFastpath()
	// One operation at a time, so that each moves the followers'
	// watermarks and draws their acks.
	const ops = 300
	for i := 0; i < ops; i++ {
		if err := c.nodes[c.ids[1+i%2]].Multicast([]byte(fmt.Sprint("op ", i))); err != nil {
			t.Fatal(err)
		}
		c.collect(c.ids[0], 1)
	}
	for _, id := range c.ids[1:] {
		if taps[id].acks() == 0 {
			t.Fatalf("%s sent no ack in %d operations: the epoch shows nothing", id, ops)
		}
	}

	for _, tap := range taps {
		tap.mark()
	}
	c.net.Partition([]memnet.NodeID{c.ids[2]})
	deadline := time.Now().Add(15 * time.Second)
	for {
		runtime.GC()
		moved, held := 0, 0
		var first tappedFrame
		var who memnet.NodeID
		for _, id := range c.ids {
			kept, beyond := taps[id].kept()
			if beyond {
				moved++
			}
			if len(kept) > 0 && held == 0 {
				first, who = kept[0], id
			}
			held += len(kept)
		}
		if moved == len(c.ids) && held == 0 {
			return
		}
		if time.Now().After(deadline) {
			if held > 0 {
				t.Fatalf("%d control datagrams still reachable a chunk's worth after they were sent (first: %s's, of kind %d)", held, who, first.kind)
			}
			t.Fatalf("%d of %d members carved a chunk's worth past the partition in time", moved, len(c.ids))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// acks counts the acks the member has sent.
func (c *controlTap) acks() (n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.frames {
		if f.kind == kindAck {
			n++
		}
	}
	return n
}
