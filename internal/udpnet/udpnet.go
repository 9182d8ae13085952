// Package udpnet is the real-network transport for the Totem protocol:
// each node binds a UDP socket, and "broadcast" is realized by sending
// the datagram to every peer in a static registry plus looping one copy
// back locally — the deployment shape of the original Totem on a LAN
// segment without IP-multicast support.
//
// udpnet implements the same totem.Transport contract as the simulated
// memnet: unordered, unreliable, broadcast-capable datagram delivery
// with self-delivery. Tests and experiments use memnet for determinism
// and fault injection; udpnet is the production path a domain runs over
// real sockets (cmd/ftdomaind -udp, or one ring member per OS process
// with -node/-registry).
//
// The datapath amortizes per-datagram costs the way the Totem literature
// assumes: Broadcast enqueues onto a bounded outbound queue and a
// dedicated send loop flushes many datagrams per syscall (sendmmsg on
// linux), while the receive loop drains many datagrams per syscall
// (recvmmsg) into pooled buffers and copies each payload out into a
// region of its own slab (Endpoint.deliverFrame), so that a received
// datagram costs no allocation of its own. The sender-identity frame
// header is precomputed once and sent as a separate iovec, so payload
// bytes are never copied on the batched transmit path. Platforms without those
// syscalls run the same queue and send loop and differ only below it:
// each flush writes, and each read takes, one datagram per syscall.
//
// Loss is expected and counted, never hidden: outbound-queue overflow,
// inbox overflow, kernel truncation, malformed frames and frames from a
// sender outside the registry each have a counter, exposed as
// eternalgw_udpnet_* metrics when a registry is attached
// (docs/OBSERVABILITY.md).
package udpnet

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
	"eternalgw/internal/slab"
)

// ErrClosed reports use of a closed endpoint.
var ErrClosed = errors.New("udpnet: endpoint closed")

// maxDatagram bounds receive buffers. Totem messages are small (the
// token plus bounded bursts of packed application payloads); anything
// larger should be fragmented by the application layer.
const maxDatagram = 64 << 10

// maxUDPPayload is the most a UDP datagram carries over IPv4: the 65 535
// an IP packet's length field can say, less the IP and UDP headers. The
// kernel refuses a longer one.
const maxUDPPayload = 65535 - 20 - 8

const (
	// inboxSize bounds the received-packet queue between the socket
	// reader and the protocol; overflow drops are counted.
	inboxSize = 4096
	// outboxSize bounds the outbound queue between Broadcast and the
	// send loop; overflow drops are counted (best-effort, like a full
	// socket buffer).
	outboxSize = 4096
	// sendGather bounds how many queued payloads one send-loop flush
	// drains; each flush transmits len(frames)×len(peers) datagrams.
	sendGather = 64
	// recvBatch bounds how many pooled maxDatagram buffers one recvmmsg
	// call may fill. It is a bound, not an allocation: an endpoint's
	// receive ring starts at one buffer and doubles towards it only as
	// the bursts it receives call for more (batch_linux.go readLoop).
	recvBatch = 64
)

// Registry maps node identities to UDP addresses. All nodes of a ring
// share one registry, fixed at configuration time (the paper's gateways
// likewise use dedicated, configured endpoints).
type Registry map[memnet.NodeID]string

// LoopbackRegistry picks a free 127.0.0.1 UDP port for every id, for
// rings whose members all live on one host (ftdomaind -udp, tests,
// benchmarks). Every probe socket stays bound until all ports are
// picked: released one by one, the kernel may hand the same port out
// twice.
func LoopbackRegistry(ids ...memnet.NodeID) (Registry, error) {
	registry := make(Registry, len(ids))
	probes := make([]*net.UDPConn, 0, len(ids))
	defer func() {
		for _, p := range probes {
			_ = p.Close()
		}
	}()
	for _, id := range ids {
		probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("udpnet: pick a port for %q: %w", id, err)
		}
		probes = append(probes, probe)
		registry[id] = probe.LocalAddr().String()
	}
	return registry, nil
}

// Config tunes an endpoint. The zero value gives the production
// defaults: OS socket-buffer sizes.
type Config struct {
	// ReadBuffer, when positive, is handed to SetReadBuffer: the kernel
	// receive buffer in bytes. Undersizing it makes the kernel drop
	// datagrams under burst — totem recovers them, at latency cost
	// (docs/OPERATIONS.md "Real-network deployment").
	ReadBuffer int
	// WriteBuffer, when positive, is handed to SetWriteBuffer.
	WriteBuffer int
	// Metrics, when set, exposes the endpoint's counters as
	// eternalgw_udpnet_* series labelled node=<id>. The datapath keeps
	// bare atomics; the registry reads them only at scrape time.
	Metrics *obs.Registry
}

// Stats is a snapshot of an endpoint's datapath counters.
type Stats struct {
	TxDatagrams   uint64 // datagrams handed to the kernel
	TxBatches     uint64 // send-loop flushes (each ≥1 syscall, many datagrams)
	TxQueueDrops  uint64 // broadcasts dropped because the outbound queue was full
	TxErrors      uint64 // datagrams the kernel refused (counted, skipped)
	RxDatagrams   uint64 // datagrams received from the socket
	RxBatches     uint64 // receive-loop syscall returns that carried ≥1 datagram
	RxInboxDrops  uint64 // received datagrams dropped because the inbox was full
	RxTruncated   uint64 // datagrams the kernel truncated (larger than maxDatagram)
	RxShortFrames uint64 // frames too short or with a hostile id length
	// RxUnknownSender counts frames dropped because their sender id is
	// not a peer in the registry: an id from outside it, or this
	// endpoint's own, which never reaches it off the socket.
	RxUnknownSender uint64
}

// peer is one remote ring member: resolved once at Listen time.
type peer struct {
	id   memnet.NodeID
	addr *net.UDPAddr
}

// Endpoint is one node's UDP attachment. It satisfies totem.Transport.
type Endpoint struct {
	id    memnet.NodeID
	conn  *net.UDPConn
	peers []peer
	// senders resolves a received frame's sender id to the peer's own
	// NodeID, so a datagram allocates no id; a frame whose id is not
	// here is dropped.
	senders map[string]memnet.NodeID
	// hdr is the precomputed sender-identity frame header (2-byte
	// big-endian id length + id bytes), shared by every datagram this
	// endpoint sends.
	hdr    []byte
	inbox  chan memnet.Packet
	outbox chan []byte
	// transmit sends one flush's frames to every peer and readLoop
	// drains the socket: sendmmsg/recvmmsg where the platform file
	// installs them (batched), one datagram per syscall otherwise.
	transmit func(frames [][]byte)
	readLoop func()
	batched  bool
	// gather and frame are the flush scratch, owned by sendLoop.
	gather [][]byte
	frame  []byte
	// rx is what received payloads are carved out of, owned by the read
	// loop (deliverFrame).
	rx slab.Slab[byte]

	closed atomic.Bool
	quit   chan struct{}
	wg     sync.WaitGroup

	txDatagrams     atomic.Uint64
	txBatches       atomic.Uint64
	txQueueDrops    atomic.Uint64
	txErrors        atomic.Uint64
	rxDatagrams     atomic.Uint64
	rxBatches       atomic.Uint64
	rxInboxDrops    atomic.Uint64
	rxTruncated     atomic.Uint64
	rxShortFrames   atomic.Uint64
	rxUnknownSender atomic.Uint64
	// rxRingSlots is how many receive buffers the read loop holds.
	rxRingSlots atomic.Int64
}

// Listen binds the endpoint for id at its registry address with default
// configuration and starts receiving. The registry must contain id.
func Listen(id memnet.NodeID, registry Registry) (*Endpoint, error) {
	return ListenConfig(id, registry, Config{})
}

// ListenConfig is Listen with explicit tuning.
func ListenConfig(id memnet.NodeID, registry Registry, cfg Config) (*Endpoint, error) {
	return listen(id, registry, cfg, false)
}

// listen builds an endpoint. portable keeps the per-datagram transmit
// and read loop even where the platform has batch syscalls, so the path
// other platforms run stays under test on this one.
func listen(id memnet.NodeID, registry Registry, cfg Config, portable bool) (*Endpoint, error) {
	self, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("udpnet: node %q not in registry", id)
	}
	laddr, err := net.ResolveUDPAddr("udp", self)
	if err != nil {
		return nil, fmt.Errorf("udpnet: resolve %q: %w", self, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	if cfg.ReadBuffer > 0 {
		if err := conn.SetReadBuffer(cfg.ReadBuffer); err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("udpnet: SetReadBuffer(%d): %w", cfg.ReadBuffer, err)
		}
	}
	if cfg.WriteBuffer > 0 {
		if err := conn.SetWriteBuffer(cfg.WriteBuffer); err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("udpnet: SetWriteBuffer(%d): %w", cfg.WriteBuffer, err)
		}
	}
	idb := []byte(id)
	e := &Endpoint{
		id:      id,
		conn:    conn,
		hdr:     append([]byte{byte(len(idb) >> 8), byte(len(idb))}, idb...),
		inbox:   make(chan memnet.Packet, inboxSize),
		outbox:  make(chan []byte, outboxSize),
		gather:  make([][]byte, 0, sendGather),
		quit:    make(chan struct{}),
		senders: make(map[string]memnet.NodeID, len(registry)),
		rx:      slab.New[byte](slab.ByteChunk),
	}
	e.transmit, e.readLoop = e.sendFramesSequential, e.readLoopSequential
	// Deterministic peer order so the platform sockaddr table is
	// reproducible across runs.
	ids := make([]string, 0, len(registry))
	for p := range registry {
		if p != id {
			ids = append(ids, string(p))
		}
	}
	sort.Strings(ids)
	for _, p := range ids {
		ua, err := net.ResolveUDPAddr("udp", registry[memnet.NodeID(p)])
		if err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("udpnet: resolve peer %q at %q: %w", p, registry[memnet.NodeID(p)], err)
		}
		e.peers = append(e.peers, peer{id: memnet.NodeID(p), addr: ua})
		e.senders[p] = memnet.NodeID(p)
	}
	if !portable {
		e.batched, err = e.useBatchSyscalls()
		if err != nil {
			_ = conn.Close()
			return nil, err
		}
	}
	e.registerMetrics(cfg.Metrics)
	e.wg.Add(2)
	go e.sendLoop()
	go func() {
		defer e.wg.Done()
		e.readLoop()
	}()
	return e, nil
}

// Addr returns the bound UDP address (useful with ":0" registries in
// tests; production registries use fixed ports so peers can be
// configured statically).
func (e *Endpoint) Addr() string { return e.conn.LocalAddr().String() }

// ID implements totem.Transport.
func (e *Endpoint) ID() memnet.NodeID { return e.id }

// Recv implements totem.Transport.
func (e *Endpoint) Recv() <-chan memnet.Packet { return e.inbox }

// MaxDatagram implements totem.Transport: what one UDP datagram carries
// behind this endpoint's frame header. A longer payload would be refused
// by the kernel at every transmission (TxErrors), for ever.
func (e *Endpoint) MaxDatagram() int { return maxUDPPayload - len(e.hdr) }

// Batched reports whether the endpoint amortizes syscalls (false on
// platforms without sendmmsg/recvmmsg).
func (e *Endpoint) Batched() bool { return e.batched }

// Broadcast implements totem.Transport: one datagram to every peer plus
// a local loopback copy (IP-multicast loopback semantics). Delivery is
// best-effort, as on a real network; totem recovers losses. The payload
// is queued, not copied; as with memnet, callers must not mutate it
// after broadcasting.
func (e *Endpoint) Broadcast(payload []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	select {
	case e.outbox <- payload:
	default:
		// Bounded queue overflow: drop, like a full socket buffer.
		e.txQueueDrops.Add(1)
	}
	e.deliverLocal(payload)
	return nil
}

// deliverLocal loops one copy of the broadcast back to the local inbox.
// The payload is aliased, not copied (the Broadcast contract already
// forbids mutation after sending, exactly as memnet does).
func (e *Endpoint) deliverLocal(payload []byte) {
	select {
	case e.inbox <- memnet.Packet{From: e.id, Payload: payload}:
	default:
		e.rxInboxDrops.Add(1)
	}
}

// sendLoop drains the outbound queue: each wakeup gathers up to
// sendGather queued payloads into one flush so a batched transmit can
// put many datagrams into each syscall. Broadcast never transmits
// inline — on a machine with few cores an inline "fast path" wins every
// race against would-be queuers and degrades every flush to a single
// frame, forfeiting the amortization this queue exists to buy.
func (e *Endpoint) sendLoop() {
	defer e.wg.Done()
	for {
		var first []byte
		select {
		case first = <-e.outbox:
		case <-e.quit:
			return
		}
		e.flush(first)
	}
}

// flush transmits first plus everything gathered from the outbound
// queue in one flush. Only sendLoop calls it; it owns e.gather and the
// transmit scratch.
func (e *Endpoint) flush(first []byte) {
	frames := append(e.gather[:0], first)
	for len(frames) < sendGather {
		select {
		case f := <-e.outbox:
			frames = append(frames, f)
		default:
			goto flush
		}
	}
flush:
	e.transmit(frames)
	e.txBatches.Add(1)
	// Drop the payload references so flushed buffers do not outlive
	// their batch.
	for i := range frames {
		frames[i] = nil
	}
	e.gather = frames
}

// sendFramesSequential is the portable transmit: each gathered frame is
// framed into the send loop's scratch buffer and written to every peer,
// one syscall per datagram.
func (e *Endpoint) sendFramesSequential(frames [][]byte) {
	for _, f := range frames {
		e.frame = append(append(e.frame[:0], e.hdr...), f...)
		for i := range e.peers {
			if _, err := e.conn.WriteToUDP(e.frame, e.peers[i].addr); err != nil {
				e.txErrors.Add(1)
				continue
			}
			e.txDatagrams.Add(1)
		}
	}
}

// readLoopSequential is the portable receive path: one syscall per
// datagram into one reused buffer. It reads no sender address, which would
// be an allocation per datagram: the frame names its sender.
func (e *Endpoint) readLoopSequential() {
	buf := make([]byte, maxDatagram)
	e.rxRingSlots.Store(1)
	for {
		n, err := e.conn.Read(buf)
		if err != nil {
			return
		}
		e.rxBatches.Add(1)
		e.deliverFrame(buf[:n], false)
	}
}

// deliverFrame validates one received datagram's sender-id framing and
// queues the decoded packet from the peer it names. The frame buffer is
// only borrowed: the payload is copied out, because the inbox consumer
// holds it as long as its keepers do (DESIGN.md section 7) while the
// receive buffers are reused at the next read. The copy is carved out of
// the endpoint's receive slab, so a payload of up to a quarter of slab.ByteChunk
// costs no allocation of its own, and a larger one is made on its own.
// Only the read loop calls it: the slab is its alone.
func (e *Endpoint) deliverFrame(frame []byte, truncated bool) {
	e.rxDatagrams.Add(1)
	if truncated {
		// The kernel cut the datagram's tail off: the payload is
		// unusable, and a sane sender never exceeds maxDatagram.
		e.rxTruncated.Add(1)
		return
	}
	id, payload, ok := decodeFrame(frame)
	if !ok {
		e.rxShortFrames.Add(1)
		return
	}
	from, ok := e.senders[string(id)]
	if !ok {
		// Not a peer: a datagram from outside the registry, or one that
		// claims this endpoint's own id. Totem never hears of it.
		e.rxUnknownSender.Add(1)
		return
	}
	cp := append(e.rx.Carve(len(payload)), payload...)
	select {
	case e.inbox <- memnet.Packet{From: from, Payload: cp}:
	default:
		e.rxInboxDrops.Add(1)
	}
}

// decodeFrame splits a wire frame into its sender id and payload, both
// aliasing the frame. It rejects frames shorter than the length prefix
// and hostile id lengths pointing past the frame end.
func decodeFrame(frame []byte) (id, payload []byte, ok bool) {
	if len(frame) < 2 {
		return nil, nil, false
	}
	idLen := int(frame[0])<<8 | int(frame[1])
	if idLen == 0 || 2+idLen > len(frame) {
		return nil, nil, false
	}
	return frame[2 : 2+idLen], frame[2+idLen:], true
}

// Stats returns a snapshot of the endpoint's counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		TxDatagrams:     e.txDatagrams.Load(),
		TxBatches:       e.txBatches.Load(),
		TxQueueDrops:    e.txQueueDrops.Load(),
		TxErrors:        e.txErrors.Load(),
		RxDatagrams:     e.rxDatagrams.Load(),
		RxBatches:       e.rxBatches.Load(),
		RxInboxDrops:    e.rxInboxDrops.Load(),
		RxTruncated:     e.rxTruncated.Load(),
		RxShortFrames:   e.rxShortFrames.Load(),
		RxUnknownSender: e.rxUnknownSender.Load(),
	}
}

// registerMetrics publishes the endpoint counters on the registry.
func (e *Endpoint) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	lbl := obs.Labels{"node": string(e.id)}
	for _, c := range []struct {
		name, help string
		fn         func() uint64
	}{
		{"eternalgw_udpnet_tx_datagrams_total", "UDP datagrams handed to the kernel.", e.txDatagrams.Load},
		{"eternalgw_udpnet_tx_batches_total", "Send-loop flushes, each transmitting many datagrams per syscall.", e.txBatches.Load},
		{"eternalgw_udpnet_tx_queue_drops_total", "Broadcasts dropped because the outbound queue was full.", e.txQueueDrops.Load},
		{"eternalgw_udpnet_tx_errors_total", "Outbound datagrams the kernel refused.", e.txErrors.Load},
		{"eternalgw_udpnet_rx_datagrams_total", "UDP datagrams received from the socket.", e.rxDatagrams.Load},
		{"eternalgw_udpnet_rx_batches_total", "Receive-loop syscall returns that carried at least one datagram.", e.rxBatches.Load},
		{"eternalgw_udpnet_rx_inbox_drops_total", "Received datagrams dropped because the inbox was full.", e.rxInboxDrops.Load},
		{"eternalgw_udpnet_rx_truncated_total", "Received datagrams the kernel truncated.", e.rxTruncated.Load},
		{"eternalgw_udpnet_rx_short_frames_total", "Received frames rejected by sender-id framing validation.", e.rxShortFrames.Load},
		{"eternalgw_udpnet_rx_unknown_sender_total", "Received frames dropped because their sender id is not a peer in the registry.", e.rxUnknownSender.Load},
	} {
		reg.CounterFunc(c.name, c.help, lbl, c.fn)
	}
	reg.GaugeFunc("eternalgw_udpnet_rx_ring_slots", "Receive buffers the read loop holds, each one datagram long; it grows to the bursts received.", lbl,
		func() float64 { return float64(e.rxRingSlots.Load()) })
}

// Close shuts the socket down and stops the send and receive loops.
func (e *Endpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	close(e.quit)
	err := e.conn.Close()
	e.wg.Wait()
	return err
}
