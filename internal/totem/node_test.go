package totem

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"eternalgw/internal/memnet"
)

// cluster is a test harness: a memnet network plus one totem node per id.
type cluster struct {
	t     *testing.T
	net   *memnet.Network
	nodes map[memnet.NodeID]*Node
	ids   []memnet.NodeID
}

// fastConfig returns timeouts tuned for tests.
func fastConfig() Config {
	return Config{
		IdleHold:        100 * time.Microsecond,
		TokenRetransmit: 10 * time.Millisecond,
		FailTimeout:     80 * time.Millisecond,
		GatherTimeout:   20 * time.Millisecond,
	}
}

func newCluster(t *testing.T, n int, opts ...memnet.Option) *cluster {
	t.Helper()
	return newClusterCfg(t, n, nil, opts...)
}

// newClusterCfg is newCluster with a config hook applied to every
// member, for tests that need non-default protocol knobs (ordering
// mode, lag limits).
func newClusterCfg(t *testing.T, n int, mut func(*Config), opts ...memnet.Option) *cluster {
	t.Helper()
	c := &cluster{
		t:     t,
		net:   memnet.New(opts...),
		nodes: make(map[memnet.NodeID]*Node, n),
	}
	for i := 0; i < n; i++ {
		c.ids = append(c.ids, memnet.NodeID(fmt.Sprintf("n%02d", i)))
	}
	for _, id := range c.ids {
		ep, err := c.net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig()
		cfg.ID = id
		cfg.Endpoint = ep
		cfg.Members = c.ids
		if mut != nil {
			mut(&cfg)
		}
		node, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[id] = node
	}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Stop()
		}
	})
	return c
}

// waitConfig consumes events from node id until a config with want
// members is seen, returning any deliveries observed on the way.
func (c *cluster) waitConfig(id memnet.NodeID, want int) []Delivery {
	c.t.Helper()
	var seen []Delivery
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-c.nodes[id].Events():
			switch ev.Type {
			case EventConfig:
				if len(ev.Config.Members) == want {
					return seen
				}
			case EventDeliver:
				seen = append(seen, ev.Delivery)
			}
		case <-deadline:
			c.t.Fatalf("%s: timed out waiting for %d-member config", id, want)
		}
	}
}

// collect consumes events from node id until n deliveries have been
// observed, ignoring config changes.
func (c *cluster) collect(id memnet.NodeID, n int) []Delivery {
	c.t.Helper()
	out := make([]Delivery, 0, n)
	deadline := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case ev := <-c.nodes[id].Events():
			if ev.Type == EventDeliver {
				out = append(out, ev.Delivery)
			}
		case <-deadline:
			c.t.Fatalf("%s: timed out after %d/%d deliveries", id, len(out), n)
		}
	}
	return out
}

func TestSingleNodeRingDelivers(t *testing.T) {
	c := newCluster(t, 1)
	c.waitConfig("n00", 1)
	for i := 0; i < 10; i++ {
		if err := c.nodes["n00"].Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ds := c.collect("n00", 10)
	for i, d := range ds {
		if d.Payload[0] != byte(i) {
			t.Fatalf("delivery %d = %v", i, d.Payload)
		}
		// With packing several payloads may share one sequence number;
		// (Seq, Sub) — folded into Timestamp — must strictly increase.
		if i > 0 && ds[i].Timestamp() <= ds[i-1].Timestamp() {
			t.Fatalf("non-increasing timestamps %d -> %d", ds[i-1].Timestamp(), ds[i].Timestamp())
		}
	}
}

func TestThreeNodeTotalOrder(t *testing.T) {
	c := newCluster(t, 3)
	for _, id := range c.ids {
		c.waitConfig(id, 3)
	}
	// Every node multicasts concurrently.
	const per = 50
	for _, id := range c.ids {
		go func(n *Node, tag byte) {
			for i := 0; i < per; i++ {
				_ = n.Multicast([]byte{tag, byte(i)})
			}
		}(c.nodes[id], id[1])
	}
	total := per * len(c.ids)
	seqs := make(map[memnet.NodeID][]Delivery)
	for _, id := range c.ids {
		seqs[id] = c.collect(id, total)
	}
	// All nodes must deliver the identical sequence.
	ref := seqs[c.ids[0]]
	for _, id := range c.ids[1:] {
		got := seqs[id]
		for i := range ref {
			if got[i].Seq != ref[i].Seq || got[i].Sub != ref[i].Sub || got[i].Sender != ref[i].Sender ||
				string(got[i].Payload) != string(ref[i].Payload) {
				t.Fatalf("%s delivery %d = %+v, n00 has %+v", id, i, got[i], ref[i])
			}
		}
	}
	// (Seq, Sub) strictly increases and the sequence numbers stay
	// contiguous: a delivery either shares its predecessor's packed
	// message or starts the next one.
	for i := 1; i < len(ref); i++ {
		if ref[i].Timestamp() <= ref[i-1].Timestamp() {
			t.Fatalf("non-increasing timestamps %d -> %d", ref[i-1].Timestamp(), ref[i].Timestamp())
		}
		if ref[i].Seq != ref[i-1].Seq && ref[i].Seq != ref[i-1].Seq+1 {
			t.Fatalf("gap in seqs: %d -> %d", ref[i-1].Seq, ref[i].Seq)
		}
	}
}

func TestSenderFIFOPreserved(t *testing.T) {
	c := newCluster(t, 2)
	for _, id := range c.ids {
		c.waitConfig(id, 2)
	}
	const per = 100
	for i := 0; i < per; i++ {
		if err := c.nodes["n00"].Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ds := c.collect("n01", per)
	for i, d := range ds {
		if d.Sender != "n00" || d.Payload[0] != byte(i) {
			t.Fatalf("delivery %d = %+v", i, d)
		}
	}
}

func TestLossRecoveryViaRetransmission(t *testing.T) {
	c := newCluster(t, 3, memnet.WithSeed(42), memnet.WithLoss(0.10))
	for _, id := range c.ids {
		c.waitConfig(id, 3)
	}
	const total = 200
	go func() {
		for i := 0; i < total; i++ {
			_ = c.nodes["n00"].Multicast([]byte{byte(i), byte(i >> 8)})
		}
	}()
	for _, id := range c.ids {
		ds := c.collect(id, total)
		for i, d := range ds {
			if d.Payload[0] != byte(i) || d.Payload[1] != byte(i>>8) {
				t.Fatalf("%s: delivery %d out of order: %v", id, i, d.Payload)
			}
		}
	}
}

func TestCrashTriggersReconfiguration(t *testing.T) {
	c := newCluster(t, 3)
	for _, id := range c.ids {
		c.waitConfig(id, 3)
	}
	c.net.Crash("n02")
	// Survivors must install a 2-member ring and keep delivering.
	c.waitConfig("n00", 2)
	c.waitConfig("n01", 2)
	if err := c.nodes["n00"].Multicast([]byte("after")); err != nil {
		t.Fatal(err)
	}
	d := c.collect("n01", 1)
	if string(d[0].Payload) != "after" {
		t.Fatalf("payload = %q", d[0].Payload)
	}
}

func TestCrashedNodeRejoins(t *testing.T) {
	c := newCluster(t, 3)
	for _, id := range c.ids {
		c.waitConfig(id, 3)
	}
	c.net.Crash("n02")
	c.waitConfig("n00", 2)
	c.net.Restart("n02")
	// The restarted node's fail timer fires, it gathers, and the ring
	// re-merges to 3 members everywhere.
	c.waitConfig("n00", 3)
	c.waitConfig("n02", 3)
	if err := c.nodes["n01"].Multicast([]byte("rejoined")); err != nil {
		t.Fatal(err)
	}
	for _, id := range c.ids {
		d := c.collect(id, 1)
		if string(d[0].Payload) != "rejoined" {
			t.Fatalf("%s payload = %q", id, d[0].Payload)
		}
	}
}

func TestDeliveryAfterCrashKeepsAgreement(t *testing.T) {
	// Messages in flight when a member crashes must still be delivered
	// in the same order by all survivors.
	c := newCluster(t, 4)
	for _, id := range c.ids {
		c.waitConfig(id, 4)
	}
	const total = 100
	go func() {
		for i := 0; i < total; i++ {
			_ = c.nodes["n00"].Multicast([]byte{byte(i)})
			if i == 40 {
				c.net.Crash("n03")
			}
		}
	}()
	a := c.collect("n00", total)
	b := c.collect("n01", total)
	for i := range a {
		if a[i].Seq != b[i].Seq || string(a[i].Payload) != string(b[i].Payload) {
			t.Fatalf("divergence at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPartitionThenHealMerges(t *testing.T) {
	c := newCluster(t, 4)
	for _, id := range c.ids {
		c.waitConfig(id, 4)
	}
	c.net.Partition([]memnet.NodeID{"n00", "n01"}, []memnet.NodeID{"n02", "n03"})
	c.waitConfig("n00", 2)
	c.waitConfig("n02", 2)
	c.net.Heal()
	// After healing, traffic from the foreign ring triggers a merge.
	if err := c.nodes["n00"].Multicast([]byte("probe")); err != nil {
		t.Fatal(err)
	}
	c.waitConfig("n00", 4)
	c.waitConfig("n03", 4)
}

func TestStatsCount(t *testing.T) {
	c := newCluster(t, 2)
	for _, id := range c.ids {
		c.waitConfig(id, 2)
	}
	if err := c.nodes["n00"].Multicast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	c.collect("n00", 1)
	c.collect("n01", 1)
	st := c.nodes["n00"].Stats()
	if st.Broadcast != 1 || st.Delivered != 1 || st.Reconfigs == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMulticastAfterStop(t *testing.T) {
	c := newCluster(t, 1)
	c.waitConfig("n00", 1)
	c.nodes["n00"].Stop()
	if err := c.nodes["n00"].Multicast([]byte("x")); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

// A buffer shorter than the room is refused at the API, not sliced on
// the protocol goroutine.
func TestMulticastFramedNeedsItsRoom(t *testing.T) {
	c := newCluster(t, 1)
	n := c.nodes["n00"]
	if err := n.MulticastFramed(make([]byte, n.Headroom()-1)); err == nil {
		t.Fatal("a buffer one byte short of the room was accepted")
	}
	if err := n.MulticastFramed(make([]byte, n.Headroom())); err != nil {
		t.Fatalf("an empty payload behind the room: %v", err)
	}
}

// boundedTransport is a transport whose datagrams end at max bytes.
type boundedTransport struct {
	Transport
	max int
}

func (b boundedTransport) MaxDatagram() int { return b.max }

// A payload no datagram of the transport can carry is refused where it is
// submitted: ordered, it would be retransmitted for ever. The ceiling
// leaves room for the longest header any configured member may put around
// the payload, a retransmission's included, so it is one payload length
// at every member; a transport without a limit has no ceiling.
func TestMulticastFramedRefusesWhatCannotTravel(t *testing.T) {
	const limit = 4096
	for _, mode := range []OrderingMode{OrderingRing, OrderingLeader} {
		c := newClusterCfg(t, 2, func(cfg *Config) {
			cfg.Ordering = mode
			cfg.Members = append(cfg.Members, "a-member-with-a-much-longer-name")
			cfg.Endpoint = boundedTransport{cfg.Endpoint, limit}
		})
		var payload int
		for id, n := range c.nodes {
			room, ceiling := n.Headroom(), n.Ceiling()
			if got := ceiling - room; payload != 0 && got != payload {
				t.Errorf("ordering %v: %s takes payloads of %d bytes, another member %d", mode, id, got, payload)
			}
			payload = ceiling - room
			// Whoever retransmits it, for whomever, in whichever form: the
			// datagram fits, and the longest of them just.
			const long = "a-member-with-a-much-longer-name"
			body := make([]byte, payload)
			worst := max(
				len(encodeRegular(regularMsg{Sender: long, Via: long, Payload: body}, nil)),
				len(encodeBatch(batchMsg{Leader: long, Origin: long, Payload: body}, nil)))
			if worst > limit || worst < limit-8 {
				t.Errorf("ordering %v: the largest payload retransmitted is a datagram of %d bytes, limit %d", mode, worst, limit)
			}
			if err := n.MulticastFramed(make([]byte, ceiling+1)); !errors.Is(err, ErrTooLarge) {
				t.Errorf("ordering %v: a buffer one byte over the ceiling: %v, want ErrTooLarge", mode, err)
			}
			if err := n.MulticastFramed(make([]byte, ceiling)); err != nil {
				t.Errorf("ordering %v: a buffer at the ceiling: %v", mode, err)
			}
		}
	}
	if n := newCluster(t, 1).nodes["n00"]; n.Ceiling() != 0 {
		t.Errorf("on memnet the ceiling is %d, want none", n.Ceiling())
	}
}

func TestMembersSnapshot(t *testing.T) {
	c := newCluster(t, 3)
	c.waitConfig("n00", 3)
	m := c.nodes["n00"].Members()
	if len(m) != 3 || m[0] != "n00" || m[1] != "n01" || m[2] != "n02" {
		t.Fatalf("members = %v", m)
	}
	if c.nodes["n00"].RingID() == 0 {
		t.Fatal("ring id not set")
	}
}

// TestGCWalksTheNewSpanOnly pins the stability collector: entries at or
// below the horizon go, entries above stay, a horizon that does not
// advance does nothing, and one that jumps past everything kept — a
// joiner's first, or a forged one — ends without walking the span.
func TestGCWalksTheNewSpanOnly(t *testing.T) {
	n := &Core{
		buffer:  make(map[uint64]regularMsg),
		skipped: make(map[uint64]bool),
		fp:      epoch{batchOrigin: make(map[uint64]batchRef), parked: make(map[uint64]parkedRef)},
	}
	fill := func(from, to uint64) {
		for s := from; s <= to; s++ {
			n.buffer[s] = regularMsg{Seq: s}
			n.fp.batchOrigin[s] = batchRef{fwd: s}
			if s%7 == 0 {
				n.skipped[s] = true
			}
			if s%5 == 0 {
				n.fp.parked[s] = parkedRef{}
			}
		}
	}
	kept := func(horizon, top uint64) {
		t.Helper()
		for s := uint64(1); s <= top; s++ {
			_, b := n.buffer[s]
			_, o := n.fp.batchOrigin[s]
			_, p := n.fp.parked[s]
			if want := s > horizon; b != want || o != want || n.skipped[s] != (want && s%7 == 0) || p != (want && s%5 == 0) {
				t.Fatalf("horizon %d: seq %d: buffered %v, origin kept %v, skipped %v, parked %v", horizon, s, b, o, n.skipped[s], p)
			}
		}
	}
	fill(1, 5000)
	n.gc(100)
	kept(100, 5000)
	n.gc(100)
	n.gc(40) // a regressing horizon (a new ring's minimum) collects nothing
	kept(100, 5000)
	n.gc(4096)
	kept(4096, 5000)
	// A horizon far beyond what is kept: must end, promptly, with
	// everything collected.
	done := make(chan struct{})
	go func() { n.gc(1 << 62); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("gc walked a forged horizon's span")
	}
	if len(n.buffer)+len(n.skipped)+len(n.fp.batchOrigin)+len(n.fp.parked) != 0 {
		t.Fatalf("a horizon past everything left %d buffered", len(n.buffer))
	}
	// Sequence numbers never reach below a collected horizon again, so
	// nothing is lost by not looking there.
	fill(1<<62+1, 1<<62+10)
	n.gc(1<<62 + 4)
	if len(n.buffer) != 6 {
		t.Fatalf("%d buffered above the horizon, want 6", len(n.buffer))
	}
}
