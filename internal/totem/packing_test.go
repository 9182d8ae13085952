package totem

import (
	"slices"
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

// TestPackingRespectsBounds checks the pack limits: maxPackCount caps the
// payloads per sequence number and maxPackBytes their bytes, and a payload
// larger than maxPackBytes still travels, alone.
func TestPackingRespectsBounds(t *testing.T) {
	v := newVnet(t, 1, 1, nil)
	v.settle(time.Second)
	mid := maxPackBytes/3 + 1 // two to a pack, not three
	var payloads [][]byte
	for i := 0; i < 3*maxPackCount; i++ {
		payloads = append(payloads, []byte{byte(i)})
	}
	for i := 0; i < 6; i++ {
		payloads = append(payloads, make([]byte, mid))
	}
	payloads = append(payloads, make([]byte, maxPackBytes+1))
	v.submit(v.ids[0], payloads...)
	v.settle(time.Second)
	if n := len(v.got[v.ids[0]]); n != len(payloads) {
		t.Fatalf("delivered %d of %d", n, len(payloads))
	}
	var packs []int // the payloads of each datagram, in the order sent
	for _, e := range v.ledger.entries {
		switch e.payload[0] {
		case kindRegular:
			if _, err := decodeRegular(cdrSkipKind(e.payload), nil); err != nil {
				t.Fatal(err)
			}
			packs = append(packs, 1)
		case kindPacked:
			m, err := decodePacked(cdrSkipKind(e.payload), nil)
			if err != nil {
				t.Fatal(err)
			}
			bytes := 0
			for _, p := range m.Parts {
				bytes += len(p)
			}
			if len(m.Parts) > maxPackCount || bytes > maxPackBytes {
				t.Fatalf("seq %d carried %d payloads, %d bytes", m.Seq, len(m.Parts), bytes)
			}
			packs = append(packs, len(m.Parts))
		}
	}
	if want := []int{maxPackCount, maxPackCount, maxPackCount, 2, 2, 2, 1}; !slices.Equal(packs, want) {
		t.Fatalf("the backlog went out in packs of %v, want %v", packs, want)
	}
}
