package memnet

import (
	"sort"
	"testing"
	"time"
)

// fakeClock collects AfterFunc callbacks and fires them only when the
// test advances it, proving delayed delivery is driven entirely by the
// injected timer source.
type fakeClock struct {
	fns []func()
}

func (c *fakeClock) AfterFunc(d time.Duration, f func()) { c.fns = append(c.fns, f) }

func (c *fakeClock) fire() {
	fns := c.fns
	c.fns = nil
	for _, f := range fns {
		f()
	}
}

func TestInjectedClockDrivesDelayedDelivery(t *testing.T) {
	clk := &fakeClock{}
	n := New(WithSeed(5), WithMaxDelay(time.Second), WithClock(clk))
	a, err := n.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
		t.Fatal("datagram delivered before the injected clock fired")
	default:
	}
	if len(clk.fns) != 1 {
		t.Fatalf("scheduled %d callbacks, want 1", len(clk.fns))
	}
	clk.fire()
	select {
	case pkt := <-b.Recv():
		if pkt.From != "a" || string(pkt.Payload) != "x" {
			t.Fatalf("delivered %+v", pkt)
		}
	default:
		t.Fatal("datagram not delivered after the clock fired")
	}
}

func TestNodesSorted(t *testing.T) {
	n := New()
	for _, id := range []NodeID{"z", "a", "m", "b"} {
		if _, err := n.Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	ids := n.sorted
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Fatalf("attached ids not sorted: %v", ids)
	}
}

// TestBroadcastDeterministicLossPattern pins the determinism contract:
// with the same seed, the same broadcast sequence loses the same
// datagrams, because fan-out consumes the RNG in sorted node order.
func TestBroadcastDeterministicLossPattern(t *testing.T) {
	run := func() []string {
		n := New(WithSeed(42), WithLoss(0.4))
		eps := make(map[NodeID]*Endpoint)
		for _, id := range []NodeID{"p0", "p1", "p2", "p3"} {
			ep, err := n.Attach(id)
			if err != nil {
				t.Fatal(err)
			}
			eps[id] = ep
		}
		var got []string
		for i := 0; i < 32; i++ {
			if err := eps["p0"].Broadcast([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []NodeID{"p0", "p1", "p2", "p3"} {
			for {
				select {
				case pkt := <-eps[id].Recv():
					got = append(got, string(id)+":"+string(pkt.Payload))
					continue
				default:
				}
				break
			}
		}
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}
