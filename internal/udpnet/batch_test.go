package udpnet

import (
	"bytes"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
	"eternalgw/internal/totem"
)

// waitStats polls an endpoint until cond holds or the deadline passes.
func waitStats(t *testing.T, e *Endpoint, what string, cond func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := e.Stats()
		if cond(s) {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never held; stats %+v", what, s)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchedCountersAndMetrics pushes a burst through a two-node pair
// and checks the datapath counters move and render as eternalgw_udpnet_*
// metrics. On platforms with batch support the burst must also amortize:
// fewer flushes than datagrams.
func TestBatchedCountersAndMetrics(t *testing.T) {
	reg := freeRegistry(t, "a", "b", "c")
	mreg := obs.NewRegistry()
	a, err := ListenConfig("a", reg, Config{Metrics: mreg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := ListenConfig("b", reg, Config{Metrics: mreg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	c, err := ListenConfig("c", reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	const burst = 200
	for i := 0; i < burst; i++ {
		if err := a.Broadcast([]byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	// Drain the peers' inboxes so nothing is dropped for lack of a
	// consumer.
	for _, ep := range []*Endpoint{b, c} {
		got := 0
		deadline := time.After(5 * time.Second)
		for got < burst {
			select {
			case <-ep.Recv():
				got++
			case <-deadline:
				t.Fatalf("%s received %d/%d datagrams", ep.ID(), got, burst)
			}
		}
	}
	sa := waitStats(t, a, "all tx datagrams flushed", func(s Stats) bool {
		return s.TxDatagrams+2*s.TxQueueDrops >= 2*burst
	})
	sb := b.Stats()
	if sb.RxDatagrams == 0 || sb.RxShortFrames != 0 || sb.RxTruncated != 0 {
		t.Fatalf("receiver stats %+v", sb)
	}
	if a.Batched() {
		// Every flush covers both peers (and possibly several gathered
		// frames), so flushes must number strictly fewer than datagrams.
		if sa.TxBatches == 0 || sa.TxBatches >= sa.TxDatagrams {
			t.Fatalf("no send amortization: %+v", sa)
		}
	}
	text := scrape(mreg)
	for _, want := range []string{
		`eternalgw_udpnet_tx_datagrams_total{node="a"}`,
		`eternalgw_udpnet_rx_datagrams_total{node="b"}`,
		`eternalgw_udpnet_rx_inbox_drops_total{node="a"}`,
		`eternalgw_udpnet_rx_ring_slots{node="b"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output lacks %s:\n%s", want, text)
		}
	}
}

// TestReceiveAllocatesOnlyThePayload: a datagram off the socket costs one
// allocation, the copy of its payload out of the pooled receive buffer —
// its sender's id is the registry's, not a new string — and a recvmmsg or
// sendmmsg call costs none once the receive ring holds a burst. The burst
// goes through both batched loops.
func TestReceiveAllocatesOnlyThePayload(t *testing.T) {
	reg := freeRegistry(t, "sender", "receiver")
	src, err := Listen("sender", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	dst, err := Listen("receiver", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dst.Close() }()
	if !dst.Batched() {
		t.Skip("no sendmmsg/recvmmsg on this platform")
	}
	const burst = 32
	payload := make([]byte, 64)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	recv := func(e *Endpoint) {
		timer.Reset(5 * time.Second)
		defer timer.Stop()
		select {
		case p := <-e.Recv():
			if p.From != "sender" {
				t.Fatalf("%s received a datagram from %q", e.ID(), p.From)
			}
		case <-timer.C:
			t.Fatalf("%s: burst lost on loopback (stats %+v)", e.ID(), e.Stats())
		}
	}
	exchange := func() {
		for i := 0; i < burst; i++ {
			if err := src.Broadcast(payload); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < burst; i++ {
			recv(dst)
			recv(src) // the loopback copy
		}
	}
	// The receive ring grows to the bursts it receives: let it grow to
	// this one first, so the window counts what a datagram costs and not
	// the ring's buffers.
	for i := 0; dst.rxRingSlots.Load() < burst; i++ {
		if i == 100 {
			t.Fatalf("the receive ring holds %d slots after %d bursts of %d", dst.rxRingSlots.Load(), i, burst)
		}
		exchange()
	}
	before := dst.Stats()
	allocs := testing.AllocsPerRun(20, exchange)
	after := dst.Stats()
	batches := float64(after.RxBatches-before.RxBatches) / 21
	t.Logf("%.1f allocations per burst of %d datagrams in %.1f recvmmsg returns", allocs, burst, batches)
	// Below one more per burst: a stray allocation elsewhere in the process
	// is tolerated, one per syscall is not.
	if allocs >= burst+1 {
		t.Fatalf("%.1f allocations per burst of %d datagrams (%.1f recvmmsg returns): want one per datagram, none per syscall", allocs, burst, batches)
	}
}

// TestReceiveRingGrowsToItsBursts: an endpoint's receive ring starts at
// one buffer and stays there while datagrams arrive one at a time; bursts
// of 64 grow it, by doubling, to at most recvBatch; and no datagram is
// lost or cut on the way, the longest one the endpoint carries included.
func TestReceiveRingGrowsToItsBursts(t *testing.T) {
	reg := freeRegistry(t, "sender", "receiver")
	src, err := Listen("sender", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	dst, err := Listen("receiver", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dst.Close() }()
	if !dst.Batched() {
		t.Skip("no sendmmsg/recvmmsg on this platform")
	}
	seq := 0
	payload := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(seq + i)
		}
		seq++
		return p
	}
	exchange := func(ps ...[]byte) {
		t.Helper()
		for _, p := range ps {
			if err := src.Broadcast(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, want := range ps {
			<-src.Recv() // the loopback copy
			select {
			case got := <-dst.Recv():
				if !bytes.Equal(got.Payload, want) {
					t.Fatalf("received %d bytes %x..., want %d bytes %x... (stats %+v)", len(got.Payload), got.Payload[:min(4, len(got.Payload))], len(want), want[:4], dst.Stats())
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("datagram lost on loopback (stats %+v)", dst.Stats())
			}
		}
	}

	for i := 0; i < 20; i++ {
		exchange(payload(64))
		// Let the read loop wait for the next one, as it does between
		// datagrams that come one at a time.
		time.Sleep(2 * time.Millisecond)
	}
	if slots := dst.rxRingSlots.Load(); slots != 1 {
		t.Fatalf("after single datagrams the ring holds %d slots, want 1", slots)
	}

	for b := 0; b < 20; b++ {
		burst := make([][]byte, 64)
		for i := range burst {
			burst[i] = payload(64 + i)
		}
		exchange(burst...)
	}
	slots := dst.rxRingSlots.Load()
	t.Logf("after 20 bursts of 64 the ring holds %d slots", slots)
	if slots < 2 || slots > recvBatch || slots&(slots-1) != 0 {
		t.Fatalf("after bursts of 64 the ring holds %d slots, want a power of two in (1, %d]", slots, recvBatch)
	}

	// A burst as long as the ring, ending in the longest datagram the
	// endpoint carries: the slots the ring grew by are as long as its first.
	burst := make([][]byte, 0, slots)
	for len(burst) < int(slots)-1 {
		burst = append(burst, payload(64))
	}
	exchange(append(burst, payload(dst.MaxDatagram()))...)
	if s := dst.Stats(); s.RxTruncated != 0 || s.RxInboxDrops != 0 || s.RxDatagrams != uint64(seq) {
		t.Fatalf("stats %+v after %d datagrams sent", s, seq)
	}
}

// TestDatagramFromOutsideTheRegistryIsDropped: a frame whose sender id
// is not a peer in the endpoint's registry — a stranger's, or the
// endpoint's own, which its peers never send — is counted and dropped
// before totem hears of it, on the batched path and the portable one. A
// frame naming a peer still arrives.
func TestDatagramFromOutsideTheRegistryIsDropped(t *testing.T) {
	for _, portable := range []bool{false, true} {
		reg := freeRegistry(t, "self", "peer")
		mreg := obs.NewRegistry()
		e, err := listen("self", reg, Config{Metrics: mreg}, portable)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = e.Close() }()
		addr, err := net.ResolveUDPAddr("udp", e.Addr())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = raw.Close() }()
		for _, f := range [][]byte{
			frameFor("stranger", []byte("forged")),
			frameFor("self", []byte("forged")),
			frameFor("peer", []byte("genuine")),
		} {
			if _, err := raw.Write(f); err != nil {
				t.Fatal(err)
			}
		}
		s := waitStats(t, e, "three datagrams read", func(s Stats) bool { return s.RxDatagrams == 3 })
		if s.RxUnknownSender != 2 {
			t.Fatalf("portable=%v: RxUnknownSender = %d, want 2 (stats %+v)", portable, s.RxUnknownSender, s)
		}
		select {
		case p := <-e.Recv():
			if p.From != "peer" || string(p.Payload) != "genuine" {
				t.Fatalf("portable=%v: delivered %q from %q, want the peer's frame alone", portable, p.Payload, p.From)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("portable=%v: the peer's frame never arrived", portable)
		}
		select {
		case p := <-e.Recv():
			t.Fatalf("portable=%v: delivered %q from %q, a sender outside the registry", portable, p.Payload, p.From)
		default:
		}
		if want := `eternalgw_udpnet_rx_unknown_sender_total{node="self"} 2`; !strings.Contains(scrape(mreg), want) {
			t.Fatalf("portable=%v: metrics lack %s", portable, want)
		}
	}
}

// TestInboxOverflowCounted proves silent packet loss is gone: with no
// consumer, what arrives once the inbox holds inboxSize datagrams lands
// in RxInboxDrops instead of vanishing.
func TestInboxOverflowCounted(t *testing.T) {
	reg := freeRegistry(t, "src", "sink")
	src, err := Listen("src", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = src.Close() }()
	sink, err := Listen("sink", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sink.Close() }()
	// A flood paced in rounds the send loop can flush, so that it is the
	// sink's inbox that overflows, not the source's outbound queue.
	deadline := time.Now().Add(10 * time.Second)
	for sink.Stats().RxInboxDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no inbox drop counted: %+v, %d queued", sink.Stats(), len(sink.Recv()))
		}
		for i := 0; i < sendGather; i++ {
			if err := src.Broadcast([]byte("flood")); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	if n := len(sink.Recv()); n != inboxSize {
		t.Fatalf("drops counted with %d datagrams queued, want a full inbox of %d", n, inboxSize)
	}
}

// lossyEndpoint is an Endpoint that drops a seeded fraction of the
// datagrams it receives from its peers; its own broadcasts, looped back,
// always arrive.
type lossyEndpoint struct {
	*Endpoint
	out     chan memnet.Packet
	dropped atomic.Uint64
}

func newLossyEndpoint(t *testing.T, ep *Endpoint, rate float64, seed int64) *lossyEndpoint {
	l := &lossyEndpoint{Endpoint: ep, out: make(chan memnet.Packet, inboxSize)}
	rng := rand.New(rand.NewSource(seed))
	stop, done := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(stop); <-done })
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case p := <-ep.Recv():
				if p.From != ep.ID() && rng.Float64() < rate {
					l.dropped.Add(1)
					continue
				}
				select {
				case l.out <- p:
				case <-stop:
					return
				}
			}
		}
	}()
	return l
}

func (l *lossyEndpoint) Recv() <-chan memnet.Packet { return l.out }

// TestSeededLossAgreement runs a ring over real sockets with 10%
// deterministic loss of every endpoint's received peer datagrams: totem's
// retransmission machinery must still deliver one identical total order
// everywhere. The seeds make the loss certain: the second endpoint drops
// the third peer datagram it receives.
func TestSeededLossAgreement(t *testing.T) {
	var lossy []*lossyEndpoint
	testLossyAgreement(t, Config{}, func(ep *Endpoint, seed int64) totem.Transport {
		l := newLossyEndpoint(t, ep, 0.1, seed)
		lossy = append(lossy, l)
		return l
	})
	var dropped uint64
	for _, l := range lossy {
		dropped += l.dropped.Load()
	}
	if dropped == 0 {
		t.Fatal("no datagram was dropped: the run proved nothing")
	}
	t.Logf("injected loss: %d datagrams", dropped)
}

// TestKernelDropRecovery shrinks the kernel receive buffer to its floor
// so bursts overflow it — genuine kernel-path loss, not injection — and
// asserts totem still reaches agreement.
func TestKernelDropRecovery(t *testing.T) {
	testLossyAgreement(t, Config{ReadBuffer: 1}, nil)
}

// testLossyAgreement runs a ring of three over endpoints configured by
// cfg, each seen through wrap when it is set.
func testLossyAgreement(t *testing.T, cfg Config, wrap func(ep *Endpoint, seed int64) totem.Transport) {
	ids := []memnet.NodeID{"l0", "l1", "l2"}
	reg := freeRegistry(t, ids...)
	nodes := make(map[memnet.NodeID]*totem.Node, len(ids))
	for i, id := range ids {
		ep, err := ListenConfig(id, reg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		var tr totem.Transport = ep
		if wrap != nil {
			tr = wrap(ep, int64(i)+1)
		}
		node, err := totem.Start(totem.Config{
			ID:              id,
			Endpoint:        tr,
			Members:         ids,
			IdleHold:        200 * time.Microsecond,
			TokenRetransmit: 15 * time.Millisecond,
			FailTimeout:     300 * time.Millisecond,
			GatherTimeout:   40 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		nodes[id] = node
	}
	for id, n := range nodes {
		deadline := time.After(20 * time.Second)
		for installed := false; !installed; {
			select {
			case ev := <-n.Events():
				installed = ev.Type == totem.EventConfig && len(ev.Config.Members) == len(ids)
			case <-deadline:
				t.Fatalf("%s: ring never installed", id)
			}
		}
	}
	const per = 25
	for _, id := range ids {
		go func(n *totem.Node, tag byte) {
			for i := 0; i < per; i++ {
				_ = n.Multicast([]byte{tag, byte(i)})
			}
		}(nodes[id], id[1])
	}
	total := per * len(ids)
	collect := func(id memnet.NodeID) []totem.Delivery {
		out := make([]totem.Delivery, 0, total)
		deadline := time.After(30 * time.Second)
		for len(out) < total {
			select {
			case ev := <-nodes[id].Events():
				if ev.Type == totem.EventDeliver {
					out = append(out, ev.Delivery)
				}
			case <-deadline:
				t.Fatalf("%s: timed out after %d/%d deliveries", id, len(out), total)
			}
		}
		return out
	}
	ref := collect(ids[0])
	for _, id := range ids[1:] {
		got := collect(id)
		for i := range ref {
			if got[i].Seq != ref[i].Seq || got[i].Sub != ref[i].Sub ||
				string(got[i].Payload) != string(ref[i].Payload) {
				t.Fatalf("%s: delivery %d differs over lossy UDP: %+v vs %+v", id, i, got[i], ref[i])
			}
		}
	}
}

// listenClose binds an endpoint on an ephemeral loopback port and closes
// it having received nothing, as a port probe does.
func listenClose(tb testing.TB) {
	e, err := Listen("probe", Registry{"probe": "127.0.0.1:0"})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.Close(); err != nil {
		tb.Fatal(err)
	}
}

// TestUnreadEndpointAllocatesNoReceiveRing: the receive ring, recvBatch
// buffers of maxDatagram (4 MiB), is allocated when the socket first has
// something to receive, so an endpoint closed before then costs its socket
// and its queues, not 4 MiB allocated and zeroed.
func TestUnreadEndpointAllocatesNoReceiveRing(t *testing.T) {
	const probes = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < probes; i++ {
		listenClose(t)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / probes; per >= recvBatch*maxDatagram/8 {
		t.Fatalf("an endpoint closed unread allocated %d KiB; the receive ring alone is %d KiB", per>>10, recvBatch*maxDatagram>>10)
	}
}

// BenchmarkListen is one endpoint bound and closed without receiving, as a
// port probe is: its B/op is what an endpoint costs before its first
// datagram.
func BenchmarkListen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		listenClose(b)
	}
}

// scrape is the exposition /metrics serves.
func scrape(reg *obs.Registry) string {
	var b strings.Builder
	_ = reg.WritePrometheus(&b)
	return b.String()
}
