package totem

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/memnet"
)

// payloadDecoders are the four decoders that hand application payloads
// out of a datagram, behind one signature.
var payloadDecoders = []struct {
	name   string
	kind   byte
	frame  func(parts [][]byte) []byte
	decode func(r *cdr.Reader) ([][]byte, error)
}{
	{"regular", kindRegular,
		func(parts [][]byte) []byte {
			return encodeRegular(regularMsg{RingID: 1, Seq: 2, Sender: "n01", Payload: parts[0]}, nil)
		},
		func(r *cdr.Reader) ([][]byte, error) {
			m, err := decodeRegular(r, nil)
			return [][]byte{m.Payload}, err
		}},
	{"packed", kindPacked,
		func(parts [][]byte) []byte {
			return encodeRegular(regularMsg{RingID: 1, Seq: 2, Sender: "n01", Parts: parts}, nil)
		},
		func(r *cdr.Reader) ([][]byte, error) {
			m, err := decodePacked(r, nil, nil)
			return m.Parts, err
		}},
	{"forward", kindForward,
		func(parts [][]byte) []byte {
			return encodeForward(forwardMsg{RingID: 1, Sender: "n01", FwdSeq: 3, Parts: parts}, nil)
		},
		func(r *cdr.Reader) ([][]byte, error) {
			f, err := decodeForward(r, nil, nil)
			return allParts(f.Payload, f.Parts), err
		}},
	{"batch", kindBatch,
		func(parts [][]byte) []byte {
			return encodeBatch(batchMsg{RingID: 1, Seq: 2, Leader: "n00", Origin: "n01", OriginFwd: 3, Stable: 1, Parts: parts}, nil, nil)
		},
		func(r *cdr.Reader) ([][]byte, error) {
			b, err := decodeBatch(r, nil, nil)
			return allParts(b.Payload, b.Parts), err
		}},
}

// slack is what a decode may allocate: part headers, the sender string,
// an error. A copied payload is 8 KiB or more.
const slack = 4 << 10

// allocatedBy returns the bytes f allocates. MemStats counts the whole
// process, and other goroutines only ever add to it, so the cheapest of
// a few runs is f's own figure.
func allocatedBy(f func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestDecodersBorrowTheDatagram pins the receive side of the datapath's
// ownership rule: every decoded payload is a cap-clipped window onto the
// input datagram, decoding costs part headers and not payload bytes, and
// hostile counts and truncated frames fail before anything is allocated
// for them.
func TestDecodersBorrowTheDatagram(t *testing.T) {
	parts := [][]byte{bytes.Repeat([]byte{0xa1}, 8<<10), bytes.Repeat([]byte{0xb2}, 8<<10), []byte("tail")}
	for _, d := range payloadDecoders {
		t.Run(d.name, func(t *testing.T) {
			want := parts
			if d.kind == kindRegular {
				want = parts[:1]
			}
			frame := d.frame(want)
			got, err := d.decode(decodeFrame(t, frame, d.kind))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("decoded %d parts, want %d", len(got), len(want))
			}
			for i, p := range got {
				if !bytes.Equal(p, want[i]) {
					t.Fatalf("part %d differs from what was encoded", i)
				}
				if cap(p) != len(p) {
					t.Errorf("part %d: cap %d != len %d: an append would run into the next part", i, cap(p), len(p))
				}
			}
			// The test owns this datagram, so it may do what no receiver
			// may: write to it. A part that sees the write is a window
			// onto the datagram; a copy would not.
			for i := range frame {
				frame[i] ^= 0xff
			}
			for i, p := range got {
				for j := range p {
					if p[j] != want[i][j]^0xff {
						t.Fatalf("part %d byte %d did not follow the datagram: the decoder copied", i, j)
					}
				}
			}
			for i := range frame {
				frame[i] ^= 0xff
			}

			if n := allocatedBy(func() { _, _ = d.decode(cdrSkipKind(frame)) }); n > slack {
				t.Errorf("decoding a %d-byte datagram allocated %d bytes; only part headers are due", len(frame), n)
			}

			// Every truncation fails, and fails cheaply.
			for cut := 1; cut < len(frame); cut += 1 + cut/16 {
				if _, err := d.decode(cdrSkipKind(frame[:cut])); err == nil {
					t.Fatalf("frame truncated at %d/%d decoded", cut, len(frame))
				}
			}
			if n := allocatedBy(func() { _, _ = d.decode(cdrSkipKind(frame[:len(frame)-1])) }); n > slack {
				t.Errorf("rejecting a truncated frame allocated %d bytes", n)
			}
			if d.kind == kindRegular {
				return
			}
			// A hostile part count: the count is the last ulong ahead of
			// the first part's length prefix.
			hostile := bytes.Clone(frame)
			off := bytes.Index(hostile, want[0][:8]) - 8
			copy(hostile[off:], []byte{0x7f, 0xff, 0xff, 0xff})
			var derr error
			n := allocatedBy(func() { _, derr = d.decode(cdrSkipKind(hostile)) })
			if derr == nil {
				t.Fatal("hostile part count decoded")
			}
			if n > slack {
				t.Errorf("rejecting a hostile part count allocated %d bytes", n)
			}
		})
	}
	// The by-reference batch's share of the rule: there is nothing to
	// borrow, so there is nothing to allocate either — not for an honest
	// reference, not for one naming a forward number no origin will ever
	// reach, and not for a part count that promises payloads the datagram
	// does not have.
	t.Run("batch by reference", func(t *testing.T) {
		ids := newIDTable([]memnet.NodeID{"n00", "n01"})
		for _, fwd := range []uint64{3, ^uint64(0)} {
			frame := encodeBatch(batchMsg{RingID: 1, Seq: 2, Leader: "n00", Origin: "n01", OriginFwd: fwd, Stable: 1, Ref: true}, nil, nil)
			b, err := decodeBatch(decodeFrame(t, frame, kindBatch), ids, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !b.Ref || b.Payload != nil || b.Parts != nil || b.OriginFwd != fwd || b.Origin != "n01" {
				t.Fatalf("decoded %+v", b)
			}
			if n := testing.AllocsPerRun(100, func() { _, _ = decodeBatch(cdrSkipKind(frame), ids, nil) }); n != 0 {
				t.Errorf("decoding a by-reference batch (OriginFwd %d) allocates %v times", fwd, n)
			}
			for cut := 1; cut < len(frame); cut++ {
				if _, err := decodeBatch(cdrSkipKind(frame[:cut]), ids, nil); err == nil {
					t.Fatalf("frame truncated at %d/%d decoded", cut, len(frame))
				}
			}
		}
		// The count is the last ulong of a by-reference frame.
		hostile := encodeBatch(batchMsg{RingID: 1, Seq: 2, Leader: "n00", Origin: "n01", OriginFwd: 3, Stable: 1, Ref: true}, nil, nil)
		copy(hostile[len(hostile)-4:], []byte{0x7f, 0xff, 0xff, 0xff})
		var derr error
		n := allocatedBy(func() { _, derr = decodeBatch(cdrSkipKind(hostile), ids, nil) })
		if derr == nil {
			t.Fatal("hostile part count decoded")
		}
		if n > slack {
			t.Errorf("rejecting a hostile part count allocated %d bytes", n)
		}
	})
}

// TestRingMemberIDsDecodeWithoutAllocating pins the id table: a datagram
// whose ids are ring members' decodes without a string allocation — a
// join, which a gather exchanges before any ring is installed, allocates
// its list of the processors alive and nothing more — a stranger's id
// decodes to the same value it always did, and decoding it does not add
// it to the table.
func TestRingMemberIDsDecodeWithoutAllocating(t *testing.T) {
	ids := newIDTable([]memnet.NodeID{"n00", "n01", "n02"})
	frames := map[string][]byte{
		"regular": encodeRegular(regularMsg{RingID: 1, Seq: 2, Sender: "n01", Payload: []byte("p")}, nil),
		"token":   encodeToken(token{RingID: 1, TokenID: 2, Succ: "n01"}, nil),
		"forward": encodeForward(forwardMsg{RingID: 1, Sender: "n01", FwdSeq: 2, Payload: []byte("p")}, nil),
		"batch":   encodeBatch(batchMsg{RingID: 1, Seq: 2, Leader: "n01", Origin: "n01", OriginFwd: 2, Payload: []byte("p")}, nil, nil),
		"ack":     encodeAck(ackMsg{RingID: 1, Sender: "n01", Aru: 2}, nil),
		"promote": encodePromote(promoteMsg{RingID: 1, Leader: "n01", StartSeq: 2, Stable: 2}, nil),
		"join":    encodeJoin(joinMsg{Sender: "n01", Alive: []memnet.NodeID{"n00", "n01"}, RingID: 2}, nil),
	}
	// Static calls, as in handlePacket, so the reader stays on the stack.
	decodeID := func(frame []byte, ids idTable) (id memnet.NodeID, err error) {
		r := cdr.NewReader(frame, cdr.BigEndian)
		switch r.ReadOctet() {
		case kindRegular:
			m, err := decodeRegular(r, ids)
			return m.Sender, err
		case kindToken:
			m, err := decodeToken(r, ids)
			return m.Succ, err
		case kindForward:
			m, err := decodeForward(r, ids, nil)
			return m.Sender, err
		case kindBatch:
			m, err := decodeBatch(r, ids, nil)
			return m.Origin, err
		case kindAck:
			m, err := decodeAck(r, ids, true)
			return m.Sender, err
		case kindPromote:
			m, err := decodePromote(r, ids)
			return m.Leader, err
		case kindJoin:
			m, err := decodeJoin(r, ids)
			if err == nil && (len(m.Alive) != 2 || m.Alive[1] != m.Sender) {
				err = fmt.Errorf("alive %v", m.Alive)
			}
			return m.Sender, err
		}
		return "", fmt.Errorf("kind %d", frame[0])
	}
	for name, frame := range frames {
		t.Run(name, func(t *testing.T) {
			got, err := decodeID(frame, ids)
			if err != nil || got != "n01" {
				t.Fatalf("decoded id %q, err %v", got, err)
			}
			want := 0.0
			if name == "join" {
				want = 1 // the alive list
			}
			if n := testing.AllocsPerRun(100, func() { _, _ = decodeID(frame, ids) }); n != want {
				t.Errorf("decoding a ring member's datagram allocates %v times, want %v", n, want)
			}
			// The same datagram from a stranger decodes to the same id it
			// always did, by allocating it — and the table stays as it was.
			stranger := bytes.ReplaceAll(frame, []byte("n01"), []byte("x99"))
			got, err = decodeID(stranger, ids)
			if err != nil || got != "x99" {
				t.Fatalf("decoded stranger id %q, err %v", got, err)
			}
			if _, ok := ids["x99"]; ok || len(ids) != 3 {
				t.Fatalf("a stranger's id entered the table: %v", ids)
			}
			if got, err = decodeID(frame, nil); err != nil || got != "n01" {
				t.Fatalf("nil table: decoded id %q, err %v", got, err)
			}
		})
	}
}

// auditTransport checksums every datagram a node broadcasts and keeps a
// reference to it, so the test can prove afterwards that nobody — no
// receiver, and not the sender either — wrote to bytes that memnet
// shares between all ring members.
type auditTransport struct {
	Transport
	ledger *datagramLedger
}

type datagramLedger struct {
	mu      sync.Mutex
	entries []ledgerEntry
}

type ledgerEntry struct {
	from    memnet.NodeID
	payload []byte
	sum     uint32
}

func (a *auditTransport) Broadcast(payload []byte) error {
	a.ledger.note(a.ID(), payload)
	return a.Transport.Broadcast(payload)
}

// note enters a datagram as it stands when it is broadcast.
func (l *datagramLedger) note(from memnet.NodeID, payload []byte) {
	l.mu.Lock()
	l.entries = append(l.entries, ledgerEntry{from, payload, crc32.ChecksumIEEE(payload)})
	l.mu.Unlock()
}

// verify re-checksums every datagram broadcast so far.
func (l *datagramLedger) verify(t *testing.T, when string) int {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, e := range l.entries {
		if crc32.ChecksumIEEE(e.payload) != e.sum {
			t.Errorf("%s: datagram %d from %s (kind %d, %d bytes) was written to after Broadcast", when, i, e.from, e.payload[0], len(e.payload))
		}
	}
	return len(l.entries)
}

// count counts the datagrams of the given kinds, first transmissions and
// retransmissions alike.
func (l *datagramLedger) count(kinds ...byte) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.entries {
		if slices.Contains(kinds, e.payload[0]) {
			n++
		}
	}
	return n
}

// TestSharedDatagramsStayIntact runs a 4-node ring on memnet, where one
// broadcast puts the same slice into all four inboxes, through delivery
// and stability garbage collection in both ordering modes, and checks
// that every datagram still has the checksum it was broadcast with. Run
// under -race it also proves no receiver's write raced another's read.
//
// A payload that travels alone is framed in the buffer it was submitted
// in, so the sender is one more party that could write to a datagram its
// receivers hold: the room in front of the payload is written once, before
// the first Broadcast. The three subtests behind the two modes are the
// schedules on which the same payload is framed a second time — each on
// the virtual-time harness, whose every test audits every datagram the same
// way (vnet.ledger), so the seeded sweeps of make sim-totem do too and a
// seed that rewrites a datagram replays.
func TestSharedDatagramsStayIntact(t *testing.T) {
	t.Run("reframed=resent forward", resentForwardIsTheSameBytes)
	t.Run("reframed=demoted forward", demotedForwardIsFramedByCopy)
	t.Run("reframed=retransmission by another member", retransmissionIsFramedByCopy)
	for _, mode := range []OrderingMode{OrderingRing, OrderingLeader} {
		t.Run(fmt.Sprint("ordering=", mode), func(t *testing.T) {
			ledger := &datagramLedger{}
			c := newClusterCfg(t, 4, func(cfg *Config) {
				cfg.Ordering = mode
				cfg.Endpoint = &auditTransport{Transport: cfg.Endpoint, ledger: ledger}
			})
			for _, id := range c.ids {
				c.waitConfig(id, 4)
			}
			if mode == OrderingLeader {
				c.waitFastpath()
			}
			// Bursts of small payloads pack; the large ones travel alone.
			const perNode = 40
			for i := 0; i < perNode; i++ {
				for k, id := range c.ids {
					size := 32
					if i%8 == 0 {
						size = 20 << 10
					}
					p := bytes.Repeat([]byte{byte(i), byte(k)}, size/2)
					if err := c.nodes[id].Multicast(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			total := perNode * len(c.ids)
			var first []Delivery
			for _, id := range c.ids {
				got := c.collect(id, total)
				if first == nil {
					first = got
				}
				// Consumers see their own payloads, whole and in the one
				// total order.
				for i, dv := range got {
					if !bytes.Equal(dv.Payload, first[i].Payload) || dv.Sender != first[i].Sender {
						t.Fatalf("%s: delivery %d differs from %s's", id, i, c.ids[0])
					}
					if want := bytes.Repeat(dv.Payload[:2], len(dv.Payload)/2); !bytes.Equal(dv.Payload, want) {
						t.Fatalf("%s: delivery %d is not the payload its sender multicast", id, i)
					}
				}
			}
			ledger.verify(t, "after delivery at all four members")

			// Let stability catch up so every member garbage-collects the
			// messages whose payloads alias those datagrams.
			passes := c.nodes[c.ids[0]].Stats().TokenPasses
			caughtUp := func() bool {
				if mode == OrderingRing {
					return c.nodes[c.ids[0]].Stats().TokenPasses >= passes+4
				}
				leader, _, ok := c.nodes[c.ids[0]].Fastpath()
				return ok && c.nodes[leader].Stats().StabilityLag == 0
			}
			for deadline := time.Now().Add(5 * time.Second); !caughtUp(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("stability never caught up")
				}
			}
			// In leader mode followers learn the horizon from the next
			// batch, so order one more message behind it.
			if err := c.nodes[c.ids[0]].Multicast([]byte("flush")); err != nil {
				t.Fatal(err)
			}
			for _, id := range c.ids {
				c.collect(id, 1)
			}
			// Without GC a member still buffers every sequenced message.
			sequenced := ledger.count(kindRegular, kindPacked, kindBatch) // what carried a sequence number
			for _, id := range c.ids {
				n := c.nodes[id]
				n.Stop()
				if len(n.core.buffer) >= sequenced {
					t.Errorf("%s: all %d sequenced messages still buffered; stability GC did not run", id, sequenced)
				}
			}
			if n := ledger.verify(t, "after stability GC"); n < total/32 {
				t.Fatalf("only %d datagrams were audited", n)
			}
		})
	}
}

// leaderVnet returns three cores in a leader epoch all of them have
// adopted, with the sequencer's id and a follower's.
func leaderVnet(t *testing.T, seed int64) (v *vnet, seq, follower memnet.NodeID) {
	t.Helper()
	v = newVnet(t, 3, seed, func(c *Config) { c.Ordering = OrderingLeader })
	v.settle(time.Second)
	adopted := func() bool {
		for _, id := range v.ids {
			if v.cores[id].fp.leader == "" {
				return false
			}
		}
		return true
	}
	if !v.run(time.Second, adopted) {
		t.Fatal("no sequencer was adopted by all")
	}
	seq = v.cores[v.ids[0]].fp.leader
	for _, id := range v.ids {
		if id != seq {
			return v, seq, id
		}
	}
	panic("unreachable")
}

// carried lists the datagrams of one kind that from broadcast with payload
// in them, by the address of their first byte: two entries with one address
// are one buffer broadcast twice.
func (l *datagramLedger) carried(from memnet.NodeID, kind byte, payload []byte) (at []*byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.entries {
		if e.from == from && e.payload[0] == kind && bytes.Contains(e.payload, payload) {
			at = append(at, &e.payload[0])
		}
	}
	return at
}

// everyoneDelivered fails unless every core delivered payload exactly once.
func (v *vnet) everyoneDelivered(payload []byte) {
	v.t.Helper()
	sum := crc32.ChecksumIEEE(payload)
	for _, id := range v.ids {
		n := 0
		for _, d := range v.got[id] {
			if d.crc == sum {
				n++
			}
		}
		if n != 1 {
			v.t.Fatalf("%s delivered the payload %d times", id, n)
		}
	}
}

// resentForwardIsTheSameBytes: a follower's forward is lost at the
// sequencer and resent on dlFwdResend. The resend is the datagram that
// went out the first time, not a second framing of its payload.
func resentForwardIsTheSameBytes(t *testing.T) {
	v, seq, follower := leaderVnet(t, 21)
	lost := 0
	v.drop = func(to memnet.NodeID, data []byte) bool {
		if to == seq && data[0] == kindForward && lost == 0 {
			lost++
			return true
		}
		return false
	}
	payload := bytes.Repeat([]byte("resent "), 3<<10)
	v.submit(follower, payload)
	v.settle(time.Second)
	v.everyoneDelivered(payload)
	sent := v.ledger.carried(follower, kindForward, payload)
	if lost != 1 || len(sent) < 2 {
		t.Fatalf("%d forwards lost, %d sent: the schedule did not force a resend", lost, len(sent))
	}
	for _, at := range sent[1:] {
		if at != sent[0] {
			t.Fatal("a resent forward is not the buffer that was broadcast the first time")
		}
	}
	if c := v.cores[follower]; c.framedInPlaceN.Load() != 1 || c.framedByCopyN.Load() != 0 {
		t.Fatalf("%s framed %d datagrams in place and %d by copy, want 1 and 0", follower, c.framedInPlaceN.Load(), c.framedByCopyN.Load())
	}
}

// demotedForwardIsFramedByCopy: the sequencer never sees a follower's
// forward, the follower gives the epoch up (maxFwdResends) and the ring is
// demoted to rotation with the forward still awaiting. The third member
// lacks a message the sequencer ordered, so the next ring owes recovery and
// rotates its token, and the payload goes out again as a regular message,
// under a new ring's id — by copy: the buffer it was submitted in is the
// forward every other member holds.
func demotedForwardIsFramedByCopy(t *testing.T) {
	v, seq, follower := leaderVnet(t, 22)
	third := v.ids[slices.IndexFunc(v.ids, func(id memnet.NodeID) bool { return id != seq && id != follower })]
	owed := func(to memnet.NodeID, data []byte) bool {
		return to == third && data[0] == kindBatch && bytes.Contains(data, []byte("owed"))
	}
	v.drop = func(to memnet.NodeID, data []byte) bool { return to == seq && data[0] == kindForward || owed(to, data) }
	v.submit(seq, []byte("owed"))
	payload := bytes.Repeat([]byte("demoted "), 3<<10)
	v.submit(follower, payload)
	c := v.cores[follower]
	if !v.run(time.Second, func() bool { return c.demotionN.Load() > 0 }) {
		t.Fatal("the follower never gave the epoch up")
	}
	v.drop = owed // the epoch's batches; the next ring retransmits in the regular form
	v.settle(2 * time.Second)
	v.everyoneDelivered(payload)
	forwards := v.ledger.carried(follower, kindForward, payload)
	again := append(v.ledger.carried(follower, kindRegular, payload), v.ledger.carried(follower, kindPacked, payload)...)
	if len(forwards) == 0 || len(again) == 0 {
		t.Fatalf("%d forwards and %d regular messages carried the payload: the schedule did not send it twice", len(forwards), len(again))
	}
	if c.framedInPlaceN.Load() != 1 || c.framedByCopyN.Load() == 0 {
		t.Fatalf("%s framed %d datagrams in place and %d by copy, want 1 and at least 1", follower, c.framedInPlaceN.Load(), c.framedByCopyN.Load())
	}
}

// retransmissionIsFramedByCopy: in ring mode a message is lost at one
// member, and the request on the token is served by the next holder — not
// its sender — which retransmits in its own name (Via) out of the datagram
// it received: the sender's buffer, which it may only read.
func retransmissionIsFramedByCopy(t *testing.T) {
	v := newVnet(t, 3, 23, nil)
	v.settle(time.Second)
	sender, misses, serves := v.ids[1], v.ids[2], v.ids[0]
	payload := bytes.Repeat([]byte("again "), 3<<10)
	lost := 0
	v.drop = func(to memnet.NodeID, data []byte) bool {
		if to == misses && data[0] == kindRegular && bytes.Contains(data, payload) && lost == 0 {
			lost++
			return true
		}
		return false
	}
	v.submit(sender, payload)
	v.settle(time.Second)
	v.everyoneDelivered(payload)
	first, served := v.ledger.carried(sender, kindRegular, payload), v.ledger.carried(serves, kindRegular, payload)
	if lost != 1 || len(first) != 1 || len(served) == 0 {
		t.Fatalf("%d lost, %d sent by %s, %d retransmitted by %s: the schedule did not have another member serve the request", lost, len(first), sender, len(served), serves)
	}
	if served[0] == first[0] {
		t.Fatal("the retransmission is the sender's buffer")
	}
	if c := v.cores[serves]; c.framedByCopyN.Load() != uint64(len(served)) || c.retransmittedN.Load() != uint64(len(served)) {
		t.Fatalf("%s counts %d datagrams by copy and %d retransmissions for %d", serves, c.framedByCopyN.Load(), c.retransmittedN.Load(), len(served))
	}
	if c := v.cores[sender]; c.framedInPlaceN.Load() != 1 || c.framedByCopyN.Load() != 0 {
		t.Fatalf("%s framed %d datagrams in place and %d by copy, want 1 and 0", sender, c.framedInPlaceN.Load(), c.framedByCopyN.Load())
	}
}
