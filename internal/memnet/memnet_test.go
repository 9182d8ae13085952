package memnet

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func recvOne(t *testing.T, e *Endpoint) Packet {
	t.Helper()
	select {
	case p := <-e.Recv():
		return p
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for packet")
		return Packet{}
	}
}

func expectNone(t *testing.T, e *Endpoint) {
	t.Helper()
	select {
	case p := <-e.Recv():
		t.Fatalf("unexpected packet from %q", p.From)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestUnicastDelivery(t *testing.T) {
	n := New()
	a, err := n.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	p := recvOne(t, b)
	if p.From != "a" || string(p.Payload) != "hello" {
		t.Fatalf("packet = %+v", p)
	}
}

func TestDuplicateAttachRejected(t *testing.T) {
	n := New()
	if _, err := n.Attach("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Attach("a"); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("err = %v, want ErrDuplicateNode", err)
	}
}

func TestBroadcastReachesAllIncludingSender(t *testing.T) {
	n := New()
	eps := make([]*Endpoint, 0, 3)
	for _, id := range []NodeID{"a", "b", "c"} {
		e, err := n.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, e)
	}
	if err := eps[0].Broadcast([]byte("ring")); err != nil {
		t.Fatal(err)
	}
	for _, e := range eps {
		p := recvOne(t, e)
		if p.From != "a" || string(p.Payload) != "ring" {
			t.Fatalf("%s got %+v", e.ID(), p)
		}
	}
}

func TestCrashBlocksTraffic(t *testing.T) {
	n := New()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")

	n.Crash("b")
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	expectNone(t, b)

	// A crashed node cannot send either.
	n.Crash("a")
	if err := a.Send("b", []byte("x")); err == nil {
		t.Fatal("send from crashed node succeeded")
	}

	n.Restart("a")
	n.Restart("b")
	if err := a.Send("b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if p := recvOne(t, b); string(p.Payload) != "y" {
		t.Fatalf("after restart got %+v", p)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	c, _ := n.Attach("c")

	n.Partition([]NodeID{"a"}, []NodeID{"b", "c"})
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	expectNone(t, b)

	// Within a partition group traffic flows.
	if err := b.Send("c", []byte("inside")); err != nil {
		t.Fatal(err)
	}
	if p := recvOne(t, c); string(p.Payload) != "inside" {
		t.Fatalf("got %+v", p)
	}

	n.Heal()
	if err := a.Send("b", []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if p := recvOne(t, b); string(p.Payload) != "healed" {
		t.Fatalf("got %+v", p)
	}
}

func TestLossInjectionDropsRoughlyAtRate(t *testing.T) {
	n := New(WithSeed(7), WithLoss(0.5))
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	const total = 2000
	for i := 0; i < total; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.Lost == 0 || st.Delivered == 0 {
		t.Fatalf("stats = %+v", st)
	}
	got := float64(st.Lost) / float64(total)
	if got < 0.4 || got > 0.6 {
		t.Errorf("loss fraction = %.3f, want ~0.5", got)
	}
	// Drain what was delivered.
	for i := uint64(0); i < st.Delivered; i++ {
		recvOne(t, b)
	}
}

func TestDuplicationInjection(t *testing.T) {
	n := New(WithSeed(3), WithDuplication(1.0))
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	if err := a.Send("b", []byte("dup")); err != nil {
		t.Fatal(err)
	}
	first := recvOne(t, b)
	second := recvOne(t, b)
	if string(first.Payload) != "dup" || string(second.Payload) != "dup" {
		t.Fatalf("packets = %+v %+v", first, second)
	}
}

func TestDelayedDeliveryArrives(t *testing.T) {
	n := New(WithSeed(11), WithMaxDelay(5*time.Millisecond))
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	if err := a.Send("b", []byte("later")); err != nil {
		t.Fatal(err)
	}
	if p := recvOne(t, b); string(p.Payload) != "later" {
		t.Fatalf("got %+v", p)
	}
}

func TestSendToUnknownNodeCountsBlocked(t *testing.T) {
	n := New()
	a, _ := n.Attach("a")
	if err := a.Send("ghost", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.Blocked != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDetachStopsDelivery(t *testing.T) {
	n := New()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	n.Detach("b")
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	expectNone(t, b)
}

func TestStatsCountDelivered(t *testing.T) {
	n := New()
	a, _ := n.Attach("a")
	b, _ := n.Attach("b")
	for i := 0; i < 5; i++ {
		if err := a.Send("b", nil); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.Sent != 5 || st.Delivered != 5 || st.Lost != 0 {
		t.Fatalf("stats = %+v", st)
	}
	for i := 0; i < 5; i++ {
		recvOne(t, b)
	}
}

// TestBroadcastWalksSortedIDsWithoutAllocating: the sorted id list is
// rebuilt when the node set changes, not on every datagram, and its
// order — the order loss and delay draws are made in, so part of the
// simulator's determinism contract — stays sorted through attaches and
// detaches in any order.
func TestBroadcastWalksSortedIDsWithoutAllocating(t *testing.T) {
	n := New(WithSeed(7), WithLoss(0.5))
	eps := make(map[NodeID]*Endpoint)
	for _, id := range []NodeID{"n3", "n0", "n9", "n1", "n5"} {
		e, err := n.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		eps[id] = e
	}
	n.Detach("n9")
	want := []NodeID{"n0", "n1", "n3", "n5"}
	if got := n.Nodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Nodes() = %v, want %v", got, want)
	}
	got := n.Nodes()
	got[0] = "mutated" // a caller's copy, not the network's list
	if n.Nodes()[0] != "n0" {
		t.Fatal("Nodes() handed out the network's own list")
	}

	// With loss on, which destinations survive depends on the draw order:
	// a twin network fed its nodes in another order must lose the same
	// datagrams.
	twin := New(WithSeed(7), WithLoss(0.5))
	twinEps := make(map[NodeID]*Endpoint)
	for _, id := range []NodeID{"n5", "n1", "n0", "n3"} {
		e, _ := twin.Attach(id)
		twinEps[id] = e
	}
	for i := 0; i < 50; i++ {
		_ = eps["n3"].Broadcast([]byte{byte(i)})
		_ = twinEps["n3"].Broadcast([]byte{byte(i)})
	}
	for _, id := range want {
		if a, b := len(eps[id].inbox), len(twinEps[id].inbox); a != b {
			t.Errorf("%s received %d datagrams, its twin %d: broadcast order depends on attach order", id, a, b)
		}
	}

	// The inboxes hold 4096 datagrams, so nobody needs to drain them.
	quiet := New()
	src, _ := quiet.Attach("a")
	for _, id := range []NodeID{"b", "c", "d"} {
		if _, err := quiet.Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	payload := []byte("x")
	if allocs := testing.AllocsPerRun(200, func() { _ = src.Broadcast(payload) }); allocs != 0 {
		t.Errorf("Broadcast made %v allocations per datagram, want 0", allocs)
	}
}
