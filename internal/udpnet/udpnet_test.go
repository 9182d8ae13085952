package udpnet

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"eternalgw/internal/memnet"
	"eternalgw/internal/totem"
)

// freeRegistry builds a registry of localhost endpoints on free ports.
func freeRegistry(t *testing.T, ids ...memnet.NodeID) Registry {
	t.Helper()
	reg, err := LoopbackRegistry(ids...)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestLoopbackRegistryDistinctPorts pins the reason the probes are held
// open together: 64 ids must get 64 different ports.
func TestLoopbackRegistryDistinctPorts(t *testing.T) {
	ids := make([]memnet.NodeID, 64)
	for i := range ids {
		ids[i] = memnet.NodeID(fmt.Sprintf("p%02d", i))
	}
	reg := freeRegistry(t, ids...)
	seen := make(map[string]memnet.NodeID, len(ids))
	for _, id := range ids {
		addr, ok := reg[id]
		if !ok {
			t.Fatalf("no address for %s", id)
		}
		if other, dup := seen[addr]; dup {
			t.Fatalf("%s and %s both got %s", other, id, addr)
		}
		seen[addr] = id
	}
}

func TestListenRequiresRegistryEntry(t *testing.T) {
	if _, err := Listen("ghost", Registry{"a": "127.0.0.1:0"}); err == nil {
		t.Fatal("missing registry entry accepted")
	}
}

func TestBroadcastSelfDelivery(t *testing.T) {
	reg := freeRegistry(t, "solo")
	e, err := Listen("solo", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	if err := e.Broadcast([]byte("loop")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-e.Recv():
		if p.From != "solo" || string(p.Payload) != "loop" {
			t.Fatalf("packet = %+v", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("self-delivery never arrived")
	}
}

func TestBroadcastReachesPeers(t *testing.T) {
	reg := freeRegistry(t, "a", "b", "c")
	eps := make(map[memnet.NodeID]*Endpoint, 3)
	for id := range reg {
		e, err := Listen(id, reg)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = e.Close() }()
		eps[id] = e
	}
	if err := eps["a"].Broadcast([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	for id, e := range eps {
		select {
		case p := <-e.Recv():
			if p.From != "a" || string(p.Payload) != "hello" {
				t.Fatalf("%s got %+v", id, p)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s never received the broadcast", id)
		}
	}
}

func TestBroadcastAfterClose(t *testing.T) {
	reg := freeRegistry(t, "x")
	e, err := Listen("x", reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Broadcast([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestTotemRingOverUDP runs a full totem ring over real UDP sockets:
// the protocol must install a ring and deliver in identical total order
// at every member — on the platform's datapath (sendmmsg/recvmmsg where
// supported) and on the portable per-datagram one.
func TestTotemRingOverUDP(t *testing.T) {
	t.Run("batched", func(t *testing.T) { testTotemRingOverUDP(t, false) })
	t.Run("perdatagram", func(t *testing.T) { testTotemRingOverUDP(t, true) })
}

func testTotemRingOverUDP(t *testing.T, portable bool) {
	ids := []memnet.NodeID{"u0", "u1", "u2"}
	reg := freeRegistry(t, ids...)
	nodes := make(map[memnet.NodeID]*totem.Node, len(ids))
	for _, id := range ids {
		ep, err := listen(id, reg, Config{}, portable)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		node, err := totem.Start(totem.Config{
			ID:              id,
			Endpoint:        ep,
			Members:         ids,
			IdleHold:        200 * time.Microsecond,
			TokenRetransmit: 20 * time.Millisecond,
			FailTimeout:     200 * time.Millisecond,
			GatherTimeout:   40 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		nodes[id] = node
	}
	// Wait for ring installation everywhere.
	for id, n := range nodes {
		deadline := time.After(10 * time.Second)
		for installed := false; !installed; {
			select {
			case ev := <-n.Events():
				installed = ev.Type == totem.EventConfig && len(ev.Config.Members) == len(ids)
			case <-deadline:
				t.Fatalf("%s: ring never installed", id)
			}
		}
	}
	const per = 20
	for _, id := range ids {
		go func(n *totem.Node, tag byte) {
			for i := 0; i < per; i++ {
				_ = n.Multicast([]byte{tag, byte(i)})
			}
		}(nodes[id], id[1])
	}
	total := per * len(ids)
	collect := func(n *totem.Node) []totem.Delivery {
		out := make([]totem.Delivery, 0, total)
		deadline := time.After(15 * time.Second)
		for len(out) < total {
			select {
			case ev := <-n.Events():
				if ev.Type == totem.EventDeliver {
					out = append(out, ev.Delivery)
				}
			case <-deadline:
				t.Fatalf("timed out after %d/%d deliveries", len(out), total)
			}
		}
		return out
	}
	ref := collect(nodes[ids[0]])
	for _, id := range ids[1:] {
		got := collect(nodes[id])
		for i := range ref {
			if got[i].Seq != ref[i].Seq || string(got[i].Payload) != string(ref[i].Payload) {
				t.Fatalf("%s: delivery %d differs over UDP: %+v vs %+v", id, i, got[i], ref[i])
			}
		}
	}
}

func TestFrameRoundTripSenderIdentity(t *testing.T) {
	reg := freeRegistry(t, "long-sender-name", "receiver")
	a, err := Listen("long-sender-name", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := Listen("receiver", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	payload := []byte(fmt.Sprintf("payload-%d", 42))
	if err := a.Broadcast(payload); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-b.Recv():
		if p.From != "long-sender-name" || string(p.Payload) != string(payload) {
			t.Fatalf("packet = %+v", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("broadcast never arrived")
	}
}

// TestMaxDatagramIsWhatTheKernelTakes: a payload of MaxDatagram bytes
// reaches a peer whole, on the batched path and the portable one; one
// byte more is refused by the kernel and counted — which is why totem asks
// before it orders a message.
func TestMaxDatagramIsWhatTheKernelTakes(t *testing.T) {
	for _, portable := range []bool{false, true} {
		reg := freeRegistry(t, "sender-with-a-name", "b")
		eps := make(map[memnet.NodeID]*Endpoint, 2)
		for id := range reg {
			e, err := listen(id, reg, Config{}, portable)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = e.Close() }()
			eps[id] = e
		}
		from, to := eps["sender-with-a-name"], eps["b"]
		payload := make([]byte, from.MaxDatagram())
		payload[len(payload)-1] = 0x7e
		if err := from.Broadcast(payload); err != nil {
			t.Fatal(err)
		}
		select {
		case p := <-to.Recv():
			if len(p.Payload) != len(payload) || p.Payload[len(payload)-1] != 0x7e {
				t.Fatalf("portable=%v: %d bytes arrived of %d", portable, len(p.Payload), len(payload))
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("portable=%v: a datagram of MaxDatagram bytes never arrived (stats %+v)", portable, from.Stats())
		}
		if err := from.Broadcast(make([]byte, from.MaxDatagram()+1)); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for from.Stats().TxErrors == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("portable=%v: one byte over MaxDatagram was not refused (stats %+v)", portable, from.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestReceivedDatagramsAllocateNothing: a received payload is copied out
// of the read loop's buffer into a region of the endpoint's receive slab,
// clipped to its length, so a datagram of the sizes a ring exchanges —
// its tokens and short messages, well under a quarter of a chunk — costs
// its share of a chunk and no allocation of its own, on the batched read
// loop and on the portable one. One copied into a buffer of its own again
// reads 1. Each run carries a batch of datagrams, so that a share of an
// allocation per datagram shows.
func TestReceivedDatagramsAllocateNothing(t *testing.T) {
	const (
		most  = 0.05
		batch = 100
	)
	for _, portable := range []bool{false, true} {
		t.Run(fmt.Sprintf("portable=%v", portable), func(t *testing.T) {
			reg := freeRegistry(t, "a", "b")
			eps := make(map[memnet.NodeID]*Endpoint, 2)
			for id := range reg {
				e, err := listen(id, reg, Config{}, portable)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = e.Close() })
				eps[id] = e
			}
			a, b := eps["a"], eps["b"]
			// Two payloads, alternately: a broadcast one is never written.
			payloads := [][]byte{bytes.Repeat([]byte{1}, 48), bytes.Repeat([]byte{2}, 160)}
			roundTrips := func() {
				for i := range batch {
					p := payloads[i%2]
					if err := a.Broadcast(p); err != nil {
						t.Fatal(err)
					}
					<-a.Recv() // the loopback copy, which is p itself
					got := (<-b.Recv()).Payload
					if !bytes.Equal(got, p) || cap(got) != len(got) {
						t.Fatalf("received %d bytes (capacity %d), sent %d", len(got), cap(got), len(p))
					}
				}
			}
			roundTrips() // the read loop's buffers and first chunk
			n := testing.AllocsPerRun(40, roundTrips) / batch
			t.Logf("%.2f allocations per received datagram", n)
			if n > most {
				t.Errorf("%.3f allocations per received datagram, want at most %v", n, most)
			}
		})
	}
}
