package totem

import (
	"fmt"
	"testing"
	"time"

	"eternalgw/internal/memnet"
)

// newLeaderCluster builds a cluster with the leader-ordered fast path
// enabled on every member.
func newLeaderCluster(t *testing.T, n int, opts ...memnet.Option) *cluster {
	t.Helper()
	return newClusterCfg(t, n, func(cfg *Config) { cfg.Ordering = OrderingLeader }, opts...)
}

// waitFastpath polls until every listed node reports the same installed
// sequencer and agreed switch sequence, returning them.
func (c *cluster) waitFastpath(ids ...memnet.NodeID) (memnet.NodeID, uint64) {
	c.t.Helper()
	if len(ids) == 0 {
		ids = c.ids
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		leader, start, ok := c.nodes[ids[0]].Fastpath()
		agreed := ok
		for _, id := range ids[1:] {
			l, s, k := c.nodes[id].Fastpath()
			if !k || l != leader || s != start {
				agreed = false
				break
			}
		}
		if agreed {
			return leader, start
		}
		time.Sleep(200 * time.Microsecond)
	}
	for _, id := range ids {
		l, s, ok := c.nodes[id].Fastpath()
		c.t.Logf("%s: fastpath leader=%q start=%d ok=%v", id, l, s, ok)
	}
	c.t.Fatal("timed out waiting for an agreed sequencer")
	return "", 0
}

func TestLeaderModePromotesAndOrders(t *testing.T) {
	c := newLeaderCluster(t, 3)
	for _, id := range c.ids {
		c.waitConfig(id, 3)
	}
	leader, start := c.waitFastpath()
	if _, ok := c.nodes[leader]; !ok {
		t.Fatalf("bogus leader %q", leader)
	}

	// Every node multicasts concurrently; all members must deliver the
	// identical sequence, entirely above the agreed switch sequence.
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
	ref := seqs[c.ids[0]]
	for _, id := range c.ids[1:] {
		got := seqs[id]
		for i := range ref {
			if got[i].Seq != ref[i].Seq || got[i].Sub != ref[i].Sub || got[i].Sender != ref[i].Sender ||
				string(got[i].Payload) != string(ref[i].Payload) {
				t.Fatalf("%s delivery %d = %+v, %s has %+v", id, i, got[i], c.ids[0], ref[i])
			}
		}
	}
	for i, d := range ref {
		if d.Seq <= start {
			t.Fatalf("delivery %d at seq %d crosses the mode switch at %d", i, d.Seq, start)
		}
		if i > 0 && ref[i].Timestamp() <= ref[i-1].Timestamp() {
			t.Fatalf("non-increasing timestamps %d -> %d", ref[i-1].Timestamp(), ref[i].Timestamp())
		}
	}
	// Per-sender FIFO must hold in leader mode too.
	idx := map[memnet.NodeID]int{}
	for _, d := range ref {
		if d.Payload[1] != byte(idx[d.Sender]) {
			t.Fatalf("sender %s FIFO broken: got %d, want %d", d.Sender, d.Payload[1], idx[d.Sender])
		}
		idx[d.Sender]++
	}

	// The work went over the fast path: the sequencer batched, at least
	// one follower forwarded, and nobody fell back to the ring.
	st := c.nodes[leader].Stats()
	if st.LeaderBatches == 0 {
		t.Fatal("sequencer ordered no batches")
	}
	if st.Demotions != 0 {
		t.Fatalf("unexpected demotions: %d", st.Demotions)
	}
	var forwarded uint64
	for _, id := range c.ids {
		if id == leader {
			continue
		}
		forwarded += c.nodes[id].Stats().Forwarded
	}
	if forwarded == 0 {
		t.Fatal("no follower forwarded to the sequencer")
	}
}

func TestLeaderModeTokenRetiredAndPacingNoop(t *testing.T) {
	c := newLeaderCluster(t, 2)
	for _, id := range c.ids {
		c.waitConfig(id, 2)
	}
	c.waitFastpath()

	// Token passes must stop once the sequencer retires the token, and a
	// forged stale token must be dropped (never held, quartered, or
	// forwarded): token pacing is a no-op in leader mode.
	var passesBefore uint64
	for _, id := range c.ids {
		passesBefore += c.nodes[id].Stats().TokenPasses
	}
	ep, err := c.net.Attach("intruder")
	if err != nil {
		t.Fatal(err)
	}
	_ = ep.Broadcast(encodeToken(token{
		RingID:  ringID(c.nodes["n00"]),
		TokenID: 1 << 20, // fresher than anything the ring issued
		Succ:    "n01",
	}, nil))
	time.Sleep(20 * time.Millisecond)
	var passesAfter uint64
	for _, id := range c.ids {
		passesAfter += c.nodes[id].Stats().TokenPasses
	}
	if passesAfter != passesBefore {
		t.Fatalf("token passes advanced in leader mode: %d -> %d", passesBefore, passesAfter)
	}

	// The ring still orders normally afterwards.
	if err := c.nodes["n01"].Multicast([]byte("alive")); err != nil {
		t.Fatal(err)
	}
	for _, id := range c.ids {
		d := c.collect(id, 1)
		if string(d[0].Payload) != "alive" {
			t.Fatalf("%s delivered %q", id, d[0].Payload)
		}
	}
}

func TestLeaderCrashDemotesToRingAndRepromotes(t *testing.T) {
	c := newLeaderCluster(t, 3)
	for _, id := range c.ids {
		c.waitConfig(id, 3)
	}
	leader, _ := c.waitFastpath()

	// Kill the sequencer with traffic in flight from every survivor.
	var survivors []memnet.NodeID
	for _, id := range c.ids {
		if id != leader {
			survivors = append(survivors, id)
		}
	}
	c.net.Crash(leader)
	for _, id := range survivors {
		if err := c.nodes[id].Multicast([]byte("mid-" + string(id))); err != nil {
			t.Fatal(err)
		}
	}

	// Survivors demote, install a 2-member ring, and keep delivering the
	// identical sequence (the in-flight payloads are requeued and
	// ordered by the recovered ring).
	delivered := make(map[memnet.NodeID][]Delivery)
	for _, id := range survivors {
		delivered[id] = c.waitConfig(id, 2)
	}
	for _, id := range survivors {
		need := 2 - len(delivered[id])
		if need > 0 {
			delivered[id] = append(delivered[id], c.collect(id, need)...)
		}
	}
	a, b := delivered[survivors[0]], delivered[survivors[1]]
	for i := range a {
		if a[i].Seq != b[i].Seq || string(a[i].Payload) != string(b[i].Payload) {
			t.Fatalf("survivors disagree at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	var demotions uint64
	for _, id := range survivors {
		demotions += c.nodes[id].Stats().Demotions
	}
	if demotions == 0 {
		t.Fatal("no survivor recorded a demotion")
	}

	// A fresh promotion follows on the survivor ring, agreed by both.
	leader2, start2 := c.waitFastpath(survivors...)
	if leader2 == leader {
		t.Fatalf("crashed node %s still sequencer", leader)
	}
	if err := c.nodes[survivors[0]].Multicast([]byte("post")); err != nil {
		t.Fatal(err)
	}
	for _, id := range survivors {
		d := c.collect(id, 1)
		if string(d[0].Payload) != "post" || d[0].Seq <= start2 {
			t.Fatalf("%s: post-promotion delivery %+v (switch at %d)", id, d[0], start2)
		}
	}
}

func TestLeaderModeAgreementUnderLossAndDuplication(t *testing.T) {
	if testing.Short() {
		t.Skip("loss sweep skipped in -short mode")
	}
	for _, seed := range []int64{1, 7, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newLeaderCluster(t, 3, memnet.WithSeed(seed), memnet.WithLoss(0.08), memnet.WithDuplication(0.05))
			for _, id := range c.ids {
				c.waitConfig(id, 3)
			}
			// No waitFastpath here: under loss the promotion itself may be
			// dropped and re-learned from heartbeats or batches while the
			// load is running — that path is part of what is under test.
			const per = 40
			for _, id := range c.ids {
				go func(n *Node, tag byte) {
					for i := 0; i < per; i++ {
						_ = n.Multicast([]byte{tag, byte(i)})
					}
				}(c.nodes[id], id[1])
			}
			total := per * len(c.ids)
			var ref []Delivery
			for _, id := range c.ids {
				got := c.collect(id, total)
				seen := make(map[uint64]bool, total)
				for i, d := range got {
					if seen[d.Timestamp()] {
						t.Fatalf("%s: duplicate delivery at timestamp %d", id, d.Timestamp())
					}
					seen[d.Timestamp()] = true
					if i > 0 && got[i].Timestamp() <= got[i-1].Timestamp() {
						t.Fatalf("%s: order violation at %d", id, i)
					}
				}
				if ref == nil {
					ref = got
					continue
				}
				for i := range ref {
					if got[i].Timestamp() != ref[i].Timestamp() || string(got[i].Payload) != string(ref[i].Payload) {
						t.Fatalf("%s delivery %d = %+v, first node has %+v", id, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

func TestLeaderModeStabilityAdvancesAndGCs(t *testing.T) {
	c := newLeaderCluster(t, 3)
	for _, id := range c.ids {
		c.waitConfig(id, 3)
	}
	leader, _ := c.waitFastpath()
	const total = 60
	for i := 0; i < total; i++ {
		if err := c.nodes[leader].Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range c.ids {
		c.collect(id, total)
	}
	// Once all members ack, the stability horizon catches the assigned
	// sequence numbers and the lag gauge returns to zero.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c.nodes[leader].Stats().StabilityLag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stability lag stuck at %d", c.nodes[leader].Stats().StabilityLag)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLeaderLagLimitDemotes: the sequencer orders its own submissions at
// one instant of virtual time, so no member can confirm any of them. It
// stays in its epoch while it runs lagLimit sequence numbers ahead of its
// stability horizon and demotes at the next, instead of buffering without
// bound; the ring that follows delivers everything everywhere.
func TestLeaderLagLimitDemotes(t *testing.T) {
	v, seq, _ := leaderVnet(t, 3)
	sc := v.cores[seq]
	k := 0
	for ; sc.fp.seq-sc.fp.stable < lagLimit; k++ {
		v.submit(seq, []byte(fmt.Sprint("ahead/", k)))
	}
	if n := sc.demotionN.Load(); n != 0 || !sc.sequencing() {
		t.Fatalf("demoted %d times at a lag of %d, within the limit", n, sc.fp.seq-sc.fp.stable)
	}
	v.submit(seq, []byte("over the limit"))
	if n := sc.demotionN.Load(); n != 1 || sc.fp.leader != "" {
		t.Fatalf("demoted %d times one past the lag limit; epoch of %q", n, sc.fp.leader)
	}
	v.settle(time.Second)
	v.agree(seq, v.ids...)
	if n := len(v.got[seq]); n != k+1 {
		t.Fatalf("%s delivered %d of %d", seq, n, k+1)
	}
}

func TestRingAblationUnaffectedByOrderingKnob(t *testing.T) {
	// OrderingRing (the default) must not promote, whatever the traffic.
	c := newCluster(t, 3)
	for _, id := range c.ids {
		c.waitConfig(id, 3)
	}
	for i := 0; i < 20; i++ {
		if err := c.nodes["n00"].Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range c.ids {
		c.collect(id, 20)
	}
	time.Sleep(20 * time.Millisecond) // plenty of idle rotations
	for _, id := range c.ids {
		if _, _, ok := c.nodes[id].Fastpath(); ok {
			t.Fatalf("%s promoted a sequencer in ring mode", id)
		}
		st := c.nodes[id].Stats()
		if st.Promotions != 0 || st.LeaderBatches != 0 || st.Forwarded != 0 {
			t.Fatalf("%s: fastpath counters moved in ring mode: %+v", id, st)
		}
	}
}
