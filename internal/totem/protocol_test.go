package totem

import (
	"fmt"
	"testing"
	"time"

	"eternalgw/internal/memnet"
)

// TestUnrecoverableGapIsSkipped forces a sequence-number gap that no
// ring member can fill: a message is "sent" with a future sequence
// number (as if the sender crashed after the token advanced but before
// anyone received the intermediate messages). The leader must age the
// retransmission requests, declare the missing numbers unrecoverable,
// and every member must keep delivering — in agreement — past the gap.
func TestUnrecoverableGapIsSkipped(t *testing.T) {
	c := newCluster(t, 3)
	for _, id := range c.ids {
		c.waitConfig(id, 3)
	}
	// Establish traffic so every node knows the current ring id.
	if err := c.nodes["n00"].Multicast([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	var pre Delivery
	for _, id := range c.ids {
		pre = c.collect(id, 1)[0]
	}

	// Emulate the real unrecoverable scenario: n00 holds the token,
	// assigns sequence numbers pre+1..pre+5, only pre+5 reaches anyone,
	// and then n00 crashes taking the token (and the only copies of
	// pre+1..pre+4) with it.
	evil, err := c.net.Attach("evil")
	if err != nil {
		t.Fatal(err)
	}
	forged := regularMsg{
		RingID:  pre.RingID,
		Seq:     pre.Seq + 5,
		Sender:  "n00",
		Payload: []byte("future"),
	}
	if err := evil.Broadcast(encodeRegular(forged, nil)); err != nil {
		t.Fatal(err)
	}
	c.net.Crash("n00")

	// The survivors reconfigure; the new token resumes from the highest
	// sequence number any survivor saw (pre+5), the missing pre+1..pre+4
	// are requested, found unrecoverable, and skipped.
	c.waitConfig("n01", 2)
	c.waitConfig("n02", 2)
	if err := c.nodes["n01"].Multicast([]byte("post")); err != nil {
		t.Fatal(err)
	}
	for _, id := range []memnet.NodeID{"n01", "n02"} {
		got := c.collect(id, 2)
		if string(got[0].Payload) != "future" || got[0].Seq != pre.Seq+5 {
			t.Fatalf("%s: first delivery = %+v, want the forged seq %d", id, got[0], pre.Seq+5)
		}
		if string(got[1].Payload) != "post" {
			t.Fatalf("%s: second delivery = %+v", id, got[1])
		}
	}
	// The new leader declared the gap's sequence numbers unrecoverable.
	if skipped := c.nodes["n01"].Stats().Skipped; skipped != 4 {
		t.Fatalf("skipped = %d, want 4", skipped)
	}
}

// TestAgreementPropertyUnderRandomLoss is a property-style test: for
// several loss seeds, all nodes must deliver identical sequences with
// strictly increasing sequence numbers and no duplicates.
func TestAgreementPropertyUnderRandomLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("loss sweep skipped in -short mode")
	}
	for _, seed := range []int64{1, 7, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newCluster(t, 3, memnet.WithSeed(seed), memnet.WithLoss(0.08), memnet.WithDuplication(0.05))
			for _, id := range c.ids {
				c.waitConfig(id, 3)
			}
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
					// With packing several payloads share a sequence
					// number; (Seq, Sub) folded into Timestamp must be
					// unique and strictly increasing.
					if seen[d.Timestamp()] {
						t.Fatalf("%s: duplicate (seq, sub) %d/%d", id, d.Seq, d.Sub)
					}
					seen[d.Timestamp()] = true
					if i > 0 && got[i].Timestamp() <= got[i-1].Timestamp() {
						t.Fatalf("%s: non-increasing timestamps %d -> %d", id, got[i-1].Timestamp(), got[i].Timestamp())
					}
				}
				if ref == nil {
					ref = got
					continue
				}
				for i := range ref {
					if got[i].Seq != ref[i].Seq || got[i].Sub != ref[i].Sub || string(got[i].Payload) != string(ref[i].Payload) {
						t.Fatalf("%s: delivery %d differs: %+v vs %+v", id, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// TestLargeRing exercises a 7-node ring end to end.
func TestLargeRing(t *testing.T) {
	c := newCluster(t, 7)
	for _, id := range c.ids {
		c.waitConfig(id, 7)
	}
	const per = 10
	for _, id := range c.ids {
		go func(n *Node) {
			for i := 0; i < per; i++ {
				_ = n.Multicast([]byte(n.ID()))
			}
		}(c.nodes[id])
	}
	total := per * len(c.ids)
	ref := c.collect(c.ids[0], total)
	last := c.collect(c.ids[6], total)
	for i := range ref {
		if ref[i].Seq != last[i].Seq || string(ref[i].Payload) != string(last[i].Payload) {
			t.Fatalf("delivery %d differs across the ring", i)
		}
	}
}

// TestSequentialReconfigurations kills members one at a time down to a
// singleton ring; delivery must continue after every reconfiguration.
func TestSequentialReconfigurations(t *testing.T) {
	c := newCluster(t, 4)
	for _, id := range c.ids {
		c.waitConfig(id, 4)
	}
	survivors := []memnet.NodeID{"n00", "n01", "n02", "n03"}
	for round := 0; round < 3; round++ {
		victim := survivors[len(survivors)-1]
		survivors = survivors[:len(survivors)-1]
		c.net.Crash(victim)
		c.waitConfig(survivors[0], len(survivors))
		payload := []byte(fmt.Sprintf("round-%d", round))
		if err := c.nodes[survivors[0]].Multicast(payload); err != nil {
			t.Fatal(err)
		}
		for _, id := range survivors {
			d := c.collect(id, 1)
			if string(d[0].Payload) != string(payload) {
				t.Fatalf("%s after round %d: %q", id, round, d[0].Payload)
			}
		}
	}
	if len(c.nodes["n00"].Members()) != 1 {
		t.Fatalf("final ring = %v", c.nodes["n00"].Members())
	}
}

// TestBurstLimitRespected checks that a large submission backlog drains
// over multiple token visits rather than one unbounded burst: no visit
// broadcasts more than maxBurst messages.
func TestBurstLimitRespected(t *testing.T) {
	v := newVnet(t, 1, 1, nil)
	v.settle(time.Second)
	const total = 2*maxBurst*maxPackCount + 1 // three visits' worth at least
	payloads := make([][]byte, total)
	for i := range payloads {
		payloads[i] = []byte{byte(i), byte(i >> 8)}
	}
	v.submit(v.ids[0], payloads...)
	v.settle(time.Second)
	if n := len(v.got[v.ids[0]]); n != total {
		t.Fatalf("delivered %d of %d", n, total)
	}
	visits, burst := 0, 0
	for _, e := range v.ledger.entries {
		switch e.payload[0] {
		case kindRegular, kindPacked:
			if burst++; burst == 1 {
				visits++
			}
			if burst > maxBurst {
				t.Fatalf("visit %d broadcast more than %d messages", visits, maxBurst)
			}
		case kindToken:
			burst = 0
		}
	}
	if visits < 3 {
		t.Fatalf("%d payloads drained in %d visits", total, visits)
	}
}

// TestAgreementUnderReordering injects random per-packet delays (which
// reorder datagrams) and checks agreement: the protocol must tolerate
// out-of-order arrival, which UDP networks produce routinely.
func TestAgreementUnderReordering(t *testing.T) {
	c := newCluster(t, 3, memnet.WithSeed(5), memnet.WithMaxDelay(2*time.Millisecond))
	for _, id := range c.ids {
		c.waitConfig(id, 3)
	}
	const per = 25
	for _, id := range c.ids {
		go func(n *Node, tag byte) {
			for i := 0; i < per; i++ {
				_ = n.Multicast([]byte{tag, byte(i)})
			}
		}(c.nodes[id], id[1])
	}
	total := per * len(c.ids)
	ref := c.collect(c.ids[0], total)
	for _, id := range c.ids[1:] {
		got := c.collect(id, total)
		for i := range ref {
			if got[i].Seq != ref[i].Seq || string(got[i].Payload) != string(ref[i].Payload) {
				t.Fatalf("%s: delivery %d differs under reordering", id, i)
			}
		}
	}
}
