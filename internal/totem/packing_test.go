package totem

import (
	"testing"
	"time"

	"eternalgw/internal/memnet"
)

// TestPackingBundlesBacklog checks the packing mechanics directly: a
// backlog submitted to an idle single-node ring drains in far fewer
// datagrams than payloads, each payload arrives in order with its
// sub-index, and the counters account for the packs.
func TestPackingBundlesBacklog(t *testing.T) {
	c := newCluster(t, 1)
	c.waitConfig("n00", 1)
	n := c.nodes["n00"]

	// Submit the backlog in one gulp while the ring is idle; the next
	// token visit packs it.
	const total = 100
	for i := 0; i < total; i++ {
		if err := n.Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ds := c.collect("n00", total)
	for i, d := range ds {
		if d.Payload[0] != byte(i) {
			t.Fatalf("delivery %d = %v, submission order lost", i, d.Payload)
		}
		if i > 0 && ds[i].Timestamp() <= ds[i-1].Timestamp() {
			t.Fatalf("non-increasing timestamps at %d", i)
		}
	}
	st := n.Stats()
	if st.PackedMsgs == 0 || st.PackedParts < 2 {
		t.Fatalf("no packing happened: %+v", st)
	}
	if st.Broadcast >= total {
		t.Fatalf("broadcast %d datagrams for %d payloads; packing saved nothing", st.Broadcast, total)
	}
}

// TestPackingUnderLossyNetwork is the safety test for packing: under
// packet loss and duplication, every node must deliver the identical
// payload sequence in total order, with no duplicate and no missing
// (Seq, Sub), and retransmitted packs must unpack the same way.
func TestPackingUnderLossyNetwork(t *testing.T) {
	c := newCluster(t, 3, memnet.WithSeed(13), memnet.WithLoss(0.10), memnet.WithDuplication(0.05))
	for _, id := range c.ids {
		c.waitConfig(id, 3)
	}
	const per = 60
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
		perSender := make(map[memnet.NodeID]byte, 3)
		for i, d := range got {
			if seen[d.Timestamp()] {
				t.Fatalf("%s: duplicate delivery (seq %d, sub %d)", id, d.Seq, d.Sub)
			}
			seen[d.Timestamp()] = true
			if i > 0 && got[i].Timestamp() <= got[i-1].Timestamp() {
				t.Fatalf("%s: order violated at %d", id, i)
			}
			// Sender FIFO: each sender's payloads carry its own counter.
			if d.Payload[1] != perSender[d.Sender] {
				t.Fatalf("%s: sender %s payload %d, want %d", id, d.Sender, d.Payload[1], perSender[d.Sender])
			}
			perSender[d.Sender]++
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref {
			if got[i].Seq != ref[i].Seq || got[i].Sub != ref[i].Sub ||
				got[i].Sender != ref[i].Sender || string(got[i].Payload) != string(ref[i].Payload) {
				t.Fatalf("%s: delivery %d differs: %+v vs %+v", id, i, got[i], ref[i])
			}
		}
	}
	var packed uint64
	for _, id := range c.ids {
		packed += c.nodes[id].Stats().PackedMsgs
	}
	if packed == 0 {
		t.Fatal("no packed messages originated; the test exercised nothing")
	}
}

// TestPackingRespectsBounds checks the pack limits: MaxPackCount caps the
// payloads per sequence number, and a payload larger than MaxPackBytes
// still travels (alone).
func TestPackingRespectsBounds(t *testing.T) {
	net := memnet.New()
	ep, err := net.Attach("solo")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.ID = "solo"
	cfg.Endpoint = ep
	cfg.Members = []memnet.NodeID{"solo"}
	cfg.MaxPackCount = 4
	cfg.MaxPackBytes = 64
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	deadline := time.After(5 * time.Second)
	for installed := false; !installed; {
		select {
		case ev := <-n.Events():
			installed = ev.Type == EventConfig
		case <-deadline:
			t.Fatal("no ring")
		}
	}

	const small = 20
	for i := 0; i < small; i++ {
		if err := n.Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	big := make([]byte, 200) // > MaxPackBytes: must still travel
	if err := n.Multicast(big); err != nil {
		t.Fatal(err)
	}

	perSeq := make(map[uint64]int)
	got := 0
	deadline = time.After(5 * time.Second)
	for got < small+1 {
		select {
		case ev := <-n.Events():
			if ev.Type != EventDeliver {
				continue
			}
			d := ev.Delivery
			perSeq[d.Seq]++
			if got == small && len(d.Payload) != len(big) {
				t.Fatalf("oversized payload arrived with %d bytes, want %d", len(d.Payload), len(big))
			}
			got++
		case <-deadline:
			t.Fatalf("timed out after %d deliveries", got)
		}
	}
	for seq, parts := range perSeq {
		if parts > cfg.MaxPackCount {
			t.Fatalf("seq %d carried %d payloads, cap is %d", seq, parts, cfg.MaxPackCount)
		}
	}
}

// TestPackCountOneDeliversPlain pins the plain wire form: with
// MaxPackCount 1 every delivery is its own sequence number (Sub always
// zero) and nothing is counted as packed.
func TestPackCountOneDeliversPlain(t *testing.T) {
	net := memnet.New()
	ep, err := net.Attach("solo")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.ID = "solo"
	cfg.Endpoint = ep
	cfg.Members = []memnet.NodeID{"solo"}
	cfg.MaxPackCount = 1
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	deadline := time.After(5 * time.Second)
	for installed := false; !installed; {
		select {
		case ev := <-n.Events():
			installed = ev.Type == EventConfig
		case <-deadline:
			t.Fatal("no ring")
		}
	}
	const total = 30
	for i := 0; i < total; i++ {
		if err := n.Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	deadline = time.After(5 * time.Second)
	var last uint64
	for got < total {
		select {
		case ev := <-n.Events():
			if ev.Type != EventDeliver {
				continue
			}
			d := ev.Delivery
			if d.Sub != 0 {
				t.Fatalf("one-payload packs but delivery has sub-index %d", d.Sub)
			}
			if got > 0 && d.Seq != last+1 {
				t.Fatalf("non-contiguous seqs %d -> %d", last, d.Seq)
			}
			last = d.Seq
			got++
		case <-deadline:
			t.Fatalf("timed out after %d deliveries", got)
		}
	}
	if st := n.Stats(); st.PackedMsgs != 0 {
		t.Fatalf("packed %d messages with MaxPackCount 1", st.PackedMsgs)
	}
}
