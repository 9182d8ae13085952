// Package core implements the paper's primary contribution: gateways for
// accessing fault tolerance domains.
//
// A gateway is the entry point through which unreplicated IIOP clients
// reach the replicated objects of a fault tolerance domain (paper
// section 3). On its external side it accepts plain TCP connections and
// speaks GIOP/IIOP, appearing to clients to be the remote server object;
// on its internal side it is a (client-only) member of the gateway
// object group, translating IIOP requests into totally-ordered
// multicasts addressed to server object groups and returning a single
// response per request, with the duplicate responses of the server
// replicas suppressed by response identifier.
//
// A gateway is not a CORBA object: it is part of the fault tolerance
// infrastructure. Several gateways form a redundant gateway group
// (paper section 3.5): each gateway's processor records the responses
// flowing through any of them, so a client that fails over to another
// gateway and reissues its pending invocations receives its responses
// without the operations being executed twice.
package core

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eternalgw/internal/admission"
	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/obs"
	"eternalgw/internal/replication"
	"eternalgw/internal/slab"
)

// Minor codes for the system exceptions the gateway itself fabricates
// (shed replies carry an admission.Verdict instead), documented in
// docs/OPERATIONS.md.
const (
	// minorUnknownObjectKey: OBJECT_NOT_EXIST — the request's object key
	// matches no replicated group at this gateway.
	minorUnknownObjectKey giop.Minor = 0
	// minorInvokeFailed: COMM_FAILURE — conveying the request into the
	// fault tolerance domain failed before the multicast.
	minorInvokeFailed giop.Minor = 0
	// minorRequestTooLarge: IMP_LIMIT — the request's header declares more
	// than one datagram of the domain's transport carries. Refused before
	// its body was read; it never entered the total order.
	minorRequestTooLarge giop.Minor = 1
	// minorOutcomeUnknown: COMM_FAILURE — multicast, and no response came
	// back in time or the wait was stopped: it may have executed.
	minorOutcomeUnknown giop.Minor = 2
	// minorNoQuorum: TRANSIENT — refused before the multicast: the ring
	// holds no majority (replication.ErrNoQuorum). Above every verdict's.
	minorNoQuorum giop.Minor = 6
)

// Config parameterizes a Gateway.
type Config struct {
	// RM is this node's replication mechanisms; the gateway must already
	// be (or become) a member of Group through it.
	RM *replication.Mechanisms
	// Group is the gateway object group identifier.
	Group replication.GroupID
	// ListenAddr is the external TCP endpoint ("host:port", empty for
	// 127.0.0.1:0).
	ListenAddr string
	// InvokeTimeout bounds each forwarded invocation. Zero means 10s.
	InvokeTimeout time.Duration
	// Log receives diagnostics (tagged component=gateway); nil discards
	// them.
	Log *slog.Logger
	// Metrics, when set, receives the gateway's counters, connection
	// gauges and a request-latency histogram for the /metrics endpoint.
	Metrics *obs.Registry
	// Tracer, when set, records invocation span events on the gateway
	// hops (accept, decode, cache suppression, reply write). Nil — the
	// default — is the disabled tracer: the datapath pays one nil check.
	Tracer *obs.Tracer
	// Admission, when set, is this gateway's admission controller:
	// connection caps with accept-loop backpressure, per-client rate
	// limiting and in-flight windows with TRANSIENT shedding, and the
	// domain-backpressure breaker. Nil admits everything. The controller
	// must be private to this gateway (its connection accounting is
	// per-listener).
	Admission *admission.Controller
}

// Stats snapshots gateway counters.
type Stats struct {
	ConnectionsAccepted uint64
	RequestsReceived    uint64
	RequestsForwarded   uint64
	RepliesReturned     uint64
	AnsweredFromCache   uint64 // reissued invocations answered from the gateway-group record
	RequestsAbandoned   uint64 // received but never answered (gateway or domain failure)
	Exceptions          uint64 // system exceptions returned to clients
	ClientsDeparted     uint64 // departed-client notifications processed by this gateway's processor (state deleted)
	RequestsShed        uint64 // requests refused by admission control (TRANSIENT returned)
	ConnectionsShed     uint64 // connections refused by admission control (closed at accept)
	RequestsTooLarge    uint64 // messages refused because the domain's transport could not carry them (IMP_LIMIT returned)
}

// Gateway bridges external IIOP clients into a fault tolerance domain.
type Gateway struct {
	cfg    Config
	rm     *replication.Mechanisms
	ln     net.Listener
	log    *slog.Logger
	tracer *obs.Tracer
	adm    *admission.Controller
	// reqHist, non-nil only when cfg.Metrics is set, records round-trip
	// latency of response-expected requests over a sliding window.
	reqHist *obs.Histogram

	// draining is set by Drain: new requests are shed with TRANSIENT and
	// the accept loop stops, while in-flight invocations bleed out.
	draining atomic.Bool
	// inflight counts the admitted requests not yet answered; Drain waits
	// for it to reach zero. Tracked by the gateway itself so drain works
	// with admission disabled too.
	inflight atomic.Int64
	// lnOnce/lnErr let Drain and Close both close the listener.
	lnOnce sync.Once
	lnErr  error
	// acceptStop unblocks an accept loop waiting on a connection slot;
	// closed by both Drain and Close.
	acceptStop     chan struct{}
	acceptStopOnce sync.Once

	mu     sync.Mutex
	conns  map[net.Conn]*clientConn
	closed bool
	// counters assigns TCP client identifiers per destination server
	// group, as in paper section 3.2.
	counters map[replication.GroupID]uint64
	// instanceNonce distinguishes this gateway instance's counter-
	// assigned client identifiers from any other gateway's.
	instanceNonce uint64

	wg sync.WaitGroup

	connectionsAccepted atomic.Uint64
	requestsReceived    atomic.Uint64
	requestsForwarded   atomic.Uint64
	repliesReturned     atomic.Uint64
	answeredFromCache   atomic.Uint64
	requestsAbandoned   atomic.Uint64
	exceptions          atomic.Uint64
	requestsShed        atomic.Uint64
	connectionsShed     atomic.Uint64
	requestsTooLarge    atomic.Uint64

	// framesMu guards frames, what every connection's requests are carved
	// out of (carveFrame).
	framesMu sync.Mutex
	frames   slab.Slab[byte]
}

// New creates a gateway, joins the gateway group as a client-only member
// and starts accepting external connections. The caller should wait for
// the group membership (rm.WaitSynced) before handing the address out.
func New(cfg Config) (*Gateway, error) {
	if cfg.RM == nil {
		return nil, errors.New("gateway: config needs replication mechanisms")
	}
	if cfg.InvokeTimeout == 0 {
		cfg.InvokeTimeout = 10 * time.Second
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		_ = ln.Close()
		return nil, fmt.Errorf("gateway: generating instance nonce: %w", err)
	}
	g := &Gateway{
		cfg:           cfg,
		rm:            cfg.RM,
		ln:            ln,
		log:           obs.ComponentLogger(cfg.Log, "gateway"),
		tracer:        cfg.Tracer,
		adm:           cfg.Admission,
		conns:         make(map[net.Conn]*clientConn),
		counters:      make(map[replication.GroupID]uint64),
		acceptStop:    make(chan struct{}),
		instanceNonce: binary.BigEndian.Uint64(nonce[:]) &^ counterIDBit,
		frames:        slab.New[byte](slab.ByteChunk),
	}
	g.registerMetrics(cfg.Metrics)
	// Join the gateway group (idempotent error if the embedding code, or
	// another gateway on this processor, joined already). The membership
	// is what makes the processor record the group's responses.
	if err := g.rm.JoinGroup(cfg.Group, nil); err != nil && !errors.Is(err, replication.ErrAlreadyMember) {
		_ = ln.Close()
		return nil, err
	}
	g.wg.Add(1)
	go g.acceptLoop()
	return g, nil
}

// Addr returns the gateway's external TCP address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// registerMetrics publishes the gateway's counters, gauges and a
// request-latency histogram on the registry, labelled with the external
// listen address so several gateways in one process stay
// distinguishable. The registry reads only at scrape time; the datapath
// keeps its bare atomic increments.
func (g *Gateway) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	lbl := obs.Labels{"gateway": g.ln.Addr().String()}
	for _, c := range []struct {
		name, help string
		fn         func() uint64
	}{
		{"eternalgw_gateway_connections_accepted_total", "External TCP connections accepted.", g.connectionsAccepted.Load},
		{"eternalgw_gateway_requests_received_total", "GIOP requests received from external clients.", g.requestsReceived.Load},
		{"eternalgw_gateway_requests_forwarded_total", "Requests conveyed into the fault tolerance domain.", g.requestsForwarded.Load},
		{"eternalgw_gateway_replies_returned_total", "Replies written back to external clients.", g.repliesReturned.Load},
		{"eternalgw_gateway_answered_from_cache_total", "Reissued invocations answered from the gateway-group record.", g.answeredFromCache.Load},
		{"eternalgw_gateway_requests_abandoned_total", "Requests received but never answered.", g.requestsAbandoned.Load},
		{"eternalgw_gateway_exceptions_total", "System exceptions returned to external clients.", g.exceptions.Load},
		{"eternalgw_gateway_clients_departed_total", "Departed-client notifications processed by this gateway's processor.", func() uint64 { return g.rm.Stats().ClientsDeparted }},
		{"eternalgw_gateway_requests_shed_total", "Requests refused by admission control (TRANSIENT returned).", g.requestsShed.Load},
		{"eternalgw_gateway_connections_shed_total", "Connections refused by admission control (closed at accept).", g.connectionsShed.Load},
		{"eternalgw_gateway_requests_too_large_total", "Messages whose header declared more than one datagram of the domain's transport carries: refused unread, requests answered IMP_LIMIT, COMPLETED_NO.", g.requestsTooLarge.Load},
	} {
		reg.CounterFunc(c.name, c.help, lbl, c.fn)
	}
	reg.GaugeFunc("eternalgw_gateway_inflight_requests", "Requests currently being conveyed through the domain.", lbl,
		func() float64 { return float64(g.inflight.Load()) })
	reg.GaugeFunc("eternalgw_gateway_draining", "1 while the gateway is draining.", lbl, func() float64 {
		if g.draining.Load() {
			return 1
		}
		return 0
	})
	if g.adm != nil {
		for _, c := range []struct {
			name, help string
			fn         func() uint64
		}{
			{"eternalgw_gateway_admission_admitted_total", "Requests admitted by the admission controller.", func() uint64 { return g.adm.Stats().Admitted }},
			{"eternalgw_gateway_admission_shed_rate_total", "Requests shed by the per-client token bucket.", func() uint64 { return g.adm.Stats().ShedRate }},
			{"eternalgw_gateway_admission_shed_window_total", "Requests shed by the in-flight window.", func() uint64 { return g.adm.Stats().ShedWindow }},
			{"eternalgw_gateway_admission_shed_draining_total", "Requests shed while draining.", func() uint64 { return g.adm.Stats().ShedDraining }},
			{"eternalgw_gateway_admission_conns_over_cap_total", "Connections shed by the per-client connection cap.", func() uint64 { return g.adm.Stats().ConnsOverCap }},
			{"eternalgw_gateway_admission_conns_shed_breaker_total", "Connections shed by the open backpressure breaker.", func() uint64 { return g.adm.Stats().ConnsShedBreaker }},
			{"eternalgw_gateway_admission_breaker_trips_total", "Times the backpressure breaker opened.", func() uint64 { return g.adm.Stats().BreakerTrips }},
		} {
			reg.CounterFunc(c.name, c.help, lbl, c.fn)
		}
		reg.GaugeFunc("eternalgw_gateway_admission_breaker_open", "1 while the backpressure breaker is open.", lbl, func() float64 {
			if g.adm.Stats().BreakerOpen {
				return 1
			}
			return 0
		})
	}
	reg.GaugeFunc("eternalgw_gateway_open_connections", "Currently connected external clients.", lbl, func() float64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return float64(len(g.conns))
	})
	reg.GaugeFunc("eternalgw_gateway_recorded_replies", "Responses held in the gateway-group record of this gateway's processor.", lbl,
		func() float64 { return float64(g.RecordedReplies()) })
	reg.GaugeFunc("eternalgw_gateway_recorded_reply_bytes", "Bytes of the responses held in that record; bounded by the reply window.", lbl, func() float64 {
		_, bytes, _ := g.rm.RecordedReplies()
		return float64(bytes)
	})
	g.reqHist = obs.NewBoundedHistogram(8192)
	reg.Histogram("eternalgw_gateway_request_duration_seconds", "Round-trip latency of response-expected requests.", lbl, g.reqHist)
}

// observeLatency records one round trip when the latency histogram is
// enabled (arrived is zero when it is not).
func (g *Gateway) observeLatency(arrived time.Time) {
	if g.reqHist != nil && !arrived.IsZero() {
		g.reqHist.Record(time.Since(arrived))
	}
}

// Host and Port of the external endpoint, for IOR construction.
func (g *Gateway) HostPort() (string, uint16) {
	addr, ok := g.ln.Addr().(*net.TCPAddr)
	if !ok {
		return "127.0.0.1", 0
	}
	return addr.IP.String(), uint16(addr.Port)
}

// Stats snapshots the counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		ConnectionsAccepted: g.connectionsAccepted.Load(),
		RequestsReceived:    g.requestsReceived.Load(),
		RequestsForwarded:   g.requestsForwarded.Load(),
		RepliesReturned:     g.repliesReturned.Load(),
		AnsweredFromCache:   g.answeredFromCache.Load(),
		RequestsAbandoned:   g.requestsAbandoned.Load(),
		Exceptions:          g.exceptions.Load(),
		ClientsDeparted:     g.rm.Stats().ClientsDeparted,
		RequestsShed:        g.requestsShed.Load(),
		ConnectionsShed:     g.connectionsShed.Load(),
		RequestsTooLarge:    g.requestsTooLarge.Load(),
	}
}

// Admission exposes the gateway's admission controller (nil when
// admission is disabled), for status pages and tests.
func (g *Gateway) Admission() *admission.Controller { return g.adm }

// InFlight reports the number of requests currently being conveyed
// through the domain on behalf of this gateway's clients.
func (g *Gateway) InFlight() int64 { return g.inflight.Load() }

// closeListener closes the external listener exactly once (Drain and
// Close both need to).
func (g *Gateway) closeListener() error {
	g.lnOnce.Do(func() { g.lnErr = g.ln.Close() })
	return g.lnErr
}

// stopAccepting wakes an accept loop blocked on a connection slot.
func (g *Gateway) stopAccepting() {
	g.acceptStopOnce.Do(func() { close(g.acceptStop) })
}

// Close stops accepting and severs all client connections. It models the
// gateway process failure of paper section 3.4 as well as orderly
// shutdown: clients with outstanding invocations observe a broken
// connection and never learn their requests' fate.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.wg.Wait()
		return nil
	}
	g.closed = true
	g.stopAccepting()
	conns := make([]net.Conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()

	err := g.closeListener()
	for _, c := range conns {
		_ = c.Close()
	}
	g.wg.Wait()
	return err
}

// Shutdown closes the gateway gracefully: connected clients receive a
// GIOP CloseConnection before their sockets are severed. The
// notification takes the connection's write lock like any reply, so it
// follows the last fragment of a reply still being written instead of
// landing between two of them. Close (without the notification) doubles
// as the abrupt process-failure model used in the section 3.4/3.5
// experiments.
func (g *Gateway) Shutdown() error {
	g.mu.Lock()
	conns := make([]*clientConn, 0, len(g.conns))
	for _, cc := range g.conns {
		conns = append(conns, cc)
	}
	g.mu.Unlock()
	for _, cc := range conns {
		cc.write(giop.EncodeCloseConnection(cdr.BigEndian))
	}
	return g.Close()
}

// Drain retires the gateway gracefully under a deadline: stop accepting
// connections and admitting requests, bleed the in-flight invocations to
// completion (so clients receive the responses they are owed), then hand
// the remaining clients to the redundant gateway group with a GIOP
// CloseConnection. Their enhanced ORBs fail over to the next profile and
// reissue any still-pending invocations; the section 3.5 gateway-group
// record answers reissues without re-executing operations, which is what
// makes the handoff safe.
//
// Requests arriving while draining are shed with a TRANSIENT system
// exception (minor code admission.ShedDraining), so even plain clients
// observe a clean retryable failure rather than a hang.
func (g *Gateway) Drain(timeout time.Duration) error {
	g.draining.Store(true)
	g.adm.BeginDrain()
	g.stopAccepting()
	_ = g.closeListener()
	deadline := time.Now().Add(timeout)
	for g.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := g.inflight.Load(); n > 0 {
		g.log.Warn("drain: invocations still in flight at deadline", "inflight", n)
	}
	return g.Shutdown()
}

// Draining reports whether Drain has been initiated.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// hostOf extracts the client address (host without port) used for the
// per-client connection cap.
func hostOf(conn net.Conn) string {
	addr := conn.RemoteAddr().String()
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}

func (g *Gateway) acceptLoop() {
	defer g.wg.Done()
	for {
		// Accept-loop backpressure: at the connection cap the gateway
		// stops accepting; further clients wait in the kernel listen
		// backlog instead of consuming gateway state.
		if !g.adm.ReserveConn(g.acceptStop) {
			return
		}
		conn, err := g.ln.Accept()
		if err != nil {
			g.adm.UnreserveConn()
			return
		}
		host := hostOf(conn)
		if v := g.adm.AdmitConn(host); v != admission.Admit {
			// The shed connection gets a CloseConnection notification —
			// the standard GIOP "go elsewhere" signal — so enhanced
			// clients fail over to the next gateway profile immediately.
			g.connectionsShed.Add(1)
			g.log.Info("shedding connection", "remote", conn.RemoteAddr(), "verdict", v)
			_ = giop.WriteMessage(conn, giop.EncodeCloseConnection(cdr.BigEndian))
			_ = conn.Close()
			continue
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			g.adm.ReleaseConn(host)
			_ = conn.Close()
			return
		}
		cc := &clientConn{gw: g, nc: conn, host: host, reading: true, wake: make(chan struct{}, 1), ids: make(map[replication.GroupID]uint64)}
		g.conns[conn] = cc
		g.mu.Unlock()
		g.connectionsAccepted.Add(1)
		g.wg.Add(2)
		go g.serveConn(cc)
		go cc.reply()
	}
}

// clientConn is the per-TCP-client state of figure 5a: the client
// identifiers assigned for each destination server group, and the
// requests in flight. Two goroutines serve a connection: its read loop
// (serveConn) answers what the gateway can answer itself and conveys the
// rest, and its replier (reply) answers what the domain completes.
type clientConn struct {
	gw   *Gateway
	nc   net.Conn
	host string
	// wmu serialises the socket's writers — the read loop answering a
	// request itself, the replier, Shutdown's close notification — so a
	// message is written whole. The gathered reply write's state is
	// under it: the reply's head, the write's two buffers, and the slice
	// of them WriteTo consumes.
	wmu   sync.Mutex
	whead []byte
	wvec  [2][]byte
	wbufs net.Buffers
	// wake tells the replier there is something to answer, or that the
	// read loop ended; a wake-up already pending absorbs another.
	wake chan struct{}

	mu  sync.Mutex
	ids map[replication.GroupID]uint64
	// oldest and newest end the list of conveyed requests awaiting their
	// responses, in the order they were read: the order of their
	// deadlines, since every one has the same InvokeTimeout.
	oldest, newest *request
	// done holds the requests completed and not yet answered, and free the
	// answered ones, for the read loop to convey the next requests in. A
	// request is in at most one of the three, so the connection holds as
	// many as it ever had in flight at once, whatever the client sends.
	done, free []*request
	// reading is cleared when the read loop ends: the replier ends once
	// nothing is left to answer.
	reading bool
}

// A request's stage says who holds it. The read loop conveys it and puts
// it on the waiting list; its completion moves it to done; the replier
// takes every done request, and a waiting one whose deadline passed,
// answers it and frees it.
const (
	stageFree      uint8 = iota // in clientConn.free, or new
	stageConveying              // with the read loop, which is registering it
	stageWaiting                // on the waiting list
	stageDone                   // completed, then queued on done and answered
	stageExpired                // taken off the waiting list past its deadline, and answered
)

// request is one conveyed request that expects a reply, from the read
// loop's registration to the replier's answer.
type request struct {
	cc   *clientConn
	call replication.Call
	// release frees the request's admission slot.
	release func()
	id      uint32
	order   cdr.ByteOrder
	minor   byte
	arrived time.Time // zero unless the tracer or the latency histogram is on
	// deadline is when the replier answers the request COMM_FAILURE if no
	// response came.
	deadline time.Time
	tkey     obs.TraceKey

	// Under cc.mu.
	stage      uint8
	cancelled  bool
	prev, next *request // the waiting list
	res        replication.Response
}

// Complete takes the domain's response to a conveyed request: on the
// event loop, so it only moves the request to the replier's queue and
// wakes the replier, or hands it to the read loop that has yet to queue
// it. A request the replier already timed out takes nothing.
//
// gwlint:eventloop
// gwlint:arena-keep
func (r *request) Complete(res replication.Response) {
	cc := r.cc
	cc.mu.Lock()
	queued := r.stage == stageWaiting
	switch r.stage {
	case stageWaiting:
		cc.unlink(r)
		cc.done = append(cc.done, r)
		fallthrough
	case stageConveying:
		r.res, r.stage = res, stageDone
	}
	cc.mu.Unlock()
	if queued {
		cc.wakeReplier()
	}
}

// wakeReplier wakes the replier without waiting: a wake-up already
// pending covers this one too.
func (cc *clientConn) wakeReplier() {
	select {
	case cc.wake <- struct{}{}:
	default:
	}
}

// link puts r at the end of the waiting list. Callers hold cc.mu.
func (cc *clientConn) link(r *request) {
	if r.prev = cc.newest; r.prev != nil {
		r.prev.next = r
	} else {
		cc.oldest = r
	}
	cc.newest = r
}

// unlink takes r off the waiting list. Callers hold cc.mu.
func (cc *clientConn) unlink(r *request) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		cc.oldest = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		cc.newest = r.prev
	}
	r.prev, r.next = nil, nil
}

// carveFrame returns an empty region with room for n bytes out of the
// slab the requests of all the gateway's connections are read into
// (serveConn): one for the gateway, so that a connection holds no chunk
// of its own, however few requests it sends.
func (g *Gateway) carveFrame(n int) []byte {
	g.framesMu.Lock()
	defer g.framesMu.Unlock()
	return g.frames.Carve(n)
}

// serveConn is a connection's read loop: the gateway spawned a dedicated
// socket for the client and keeps listening for further clients on the
// original socket (paper section 3.1). It reads the client's requests in
// turn and never waits for a reply; when it ends, the replier answers
// what is still in flight and closes the connection.
func (g *Gateway) serveConn(cc *clientConn) {
	defer g.wg.Done()
	nc := cc.nc
	defer func() {
		cc.mu.Lock()
		cc.reading = false
		cc.mu.Unlock()
		cc.wakeReplier()
	}()
	// A request is read into the buffer it is multicast from: behind the
	// room the domain's headers take, and no longer than one datagram of
	// its transport carries. A short one is carved out of the gateway's
	// slab: what keeps a request's frame past this loop lets go of it in
	// order or is bounded (DESIGN.md section 7).
	room, ceiling := g.rm.Headroom()
	ra := giop.NewReassembler(nc, max(0, ceiling-room-giop.HeaderSize))
	ra.Room, ra.Frames = room, g.carveFrame
	// Each request is decoded into the room the last one's
	// service-context list left: nothing holds a list past its request,
	// and what a request borrows from its frame is let go of before the
	// connection waits for the next, so an idle one holds none.
	var req giop.Request
	for {
		req.Reset()
		msg, err := ra.Next()
		if msg.Body != nil && errors.Is(err, giop.ErrTooLarge) {
			// Refused, and read past: the connection is still in step.
			cc.refuseOversize(msg)
			continue
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				g.log.Warn("connection failed", "remote", nc.RemoteAddr(), "err", err)
			}
			return
		}
		switch msg.Header.Type {
		case giop.MsgRequest:
			// The message's arrival instant anchors the trace and the
			// latency histogram; with both disabled the clock is skipped.
			var arrived time.Time
			if g.tracer != nil || g.reqHist != nil {
				arrived = time.Now()
			}
			if err := giop.DecodeRequestInto(msg, &req); err != nil {
				g.log.Warn("bad request", "remote", nc.RemoteAddr(), "err", err)
				cc.write(giop.EncodeMessageError(msg.Header.Order))
				continue
			}
			g.requestsReceived.Add(1)
			// Resolving the group and client identifier before admission
			// keeps shed decisions per-client (the paper's TCP client
			// identifier), and a bad object key never costs a window slot.
			group, ok := g.rm.GroupByKey(req.ObjectKey)
			if !ok {
				g.exceptions.Add(1)
				cc.writeReplyRaw(msg.Header, req.RequestID, giop.Reply{
					Status: giop.ReplySystemException,
					Result: giop.ObjectNotExist.Body(msg.Header.Order, minorUnknownObjectKey),
				})
				continue
			}
			clientID := cc.clientID(group, req)
			if g.draining.Load() {
				cc.shedReply(msg, req, admission.ShedDraining)
				continue
			}
			release, verdict := g.adm.AdmitRequest(clientID)
			if verdict != admission.Admit {
				cc.shedReply(msg, req, verdict)
				continue
			}
			// What the gateway holds per request is bounded by the
			// in-flight window above: under overload it sheds instead of
			// growing without bound.
			g.inflight.Add(1)
			cc.handleRequest(msg, req, arrived, group, clientID, release)
		case giop.MsgLocateRequest:
			cc.handleLocate(msg)
		case giop.MsgCloseConn:
			return
		case giop.MsgCancelRequest:
			// The invocation is already in the total order and will
			// execute (it cannot be unsent, in CORBA or here); the
			// client has merely declared it no longer wants the reply,
			// so the gateway will not write it.
			if cr, err := giop.DecodeCancelRequest(msg); err == nil {
				cc.cancelRequest(cr.RequestID)
			}
		default:
			cc.write(giop.EncodeMessageError(msg.Header.Order))
		}
	}
}

func (cc *clientConn) write(msg giop.Message) {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	if err := giop.WriteMessageFragmented(cc.nc, msg, 0); err != nil {
		cc.gw.log.Warn("write failed", "remote", cc.nc.RemoteAddr(), "err", err)
	}
}

// clientID returns the TCP client identifier for this connection and
// destination group. Enhanced clients supply a unique identifier in the
// FT_C service context (paper section 3.5); for plain ORBs the gateway
// assigns the next value of the per-group counter (section 3.2), which
// is what makes their requests unidentifiable across gateway failures
// (section 3.4).
func (cc *clientConn) clientID(group replication.GroupID, req giop.Request) uint64 {
	if data, ok := giop.ContextByID(req.ServiceContexts, giop.FTClientContextID); ok && len(data) > 0 {
		h := fnv.New64a()
		_, _ = h.Write(data)
		id := h.Sum64()
		if id == replication.UnusedClientID {
			id = 1
		}
		return id
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if id, ok := cc.ids[group]; ok {
		return id
	}
	cc.gw.mu.Lock()
	cc.gw.counters[group]++
	// The counter is mixed with a per-gateway-instance nonce: a counter
	// value is only meaningful to the gateway that assigned it, which is
	// precisely the weakness of section 3.4 — a recovered or redundant
	// gateway has no way of knowing that a reconnecting TCP client is
	// the same client, so its resent requests become new operations.
	id := cc.gw.counters[group] ^ cc.gw.instanceNonce | counterIDBit
	cc.gw.mu.Unlock()
	cc.ids[group] = id
	return id
}

// counterIDBit marks gateway-assigned client identifiers; enhanced
// clients' hashed identifiers occupy the rest of the space (a hash could
// still land in the marked half, but the paper's point stands either
// way: counter ids are only meaningful to the assigning gateway).
const counterIDBit = uint64(1) << 63

// handleRequest implements figure 5a for an admitted request, its object
// key resolved to the server group: tag the request with the client and
// operation identifiers and convey it into the fault tolerance domain —
// or answer a reissue from the gateway group's record. The replier
// returns the (first, deduplicated) response over the client's socket.
func (cc *clientConn) handleRequest(msg giop.Message, req giop.Request, arrived time.Time, group replication.GroupID, clientID uint64, release func()) {
	gw := cc.gw
	op := replication.OperationID{ParentTS: 0, ChildSeq: req.RequestID}
	tkey := obs.TraceKey{ClientID: clientID, ParentTS: op.ParentTS, ChildSeq: op.ChildSeq}
	if gw.tracer != nil {
		gw.tracer.EventAt(tkey, obs.StageGatewayAccept, arrived, "gateway")
		gw.tracer.Event(tkey, obs.StageIIOPDecode, "gateway")
	}

	// A reissued invocation (after the client failed over from a dead
	// gateway) may already have been answered; the gateway group's
	// record answers it without touching the servers.
	if rep, ok := gw.cachedReply(group, clientID, op); ok {
		gw.answeredFromCache.Add(1)
		gw.tracer.Event(tkey, obs.StageDupSuppressed, "gateway-record")
		if req.ResponseExpected {
			gw.repliesReturned.Add(1)
			cc.writeReplyRaw(msg.Header, req.RequestID, rep)
			gw.tracer.Event(tkey, obs.StageReplyWrite, "gateway")
		}
		gw.observeLatency(arrived)
		gw.finish(release)
		return
	}

	gw.requestsForwarded.Add(1)
	if !req.ResponseExpected {
		// One-way request: convey it into the domain without waiting
		// for (or ever receiving) a response.
		if err := gw.rm.MulticastFrame(gw.cfg.Group, clientID, group, op, msg.Frame); err != nil {
			gw.requestsAbandoned.Add(1)
		}
		gw.finish(release)
		return
	}
	r := cc.newRequest()
	r.release, r.id, r.order, r.minor = release, req.RequestID, msg.Header.Order, msg.Header.Minor
	r.arrived, r.tkey = arrived, tkey
	r.deadline = time.Now().Add(gw.cfg.InvokeTimeout)
	err := gw.rm.ConveyFrame(&r.call, gw.cfg.Group, clientID, group, op, msg.Frame, r)
	cc.mu.Lock()
	completed := r.stage == stageDone
	switch {
	case completed:
		// Completed before it was queued: a response, or Stop, came while
		// it was being registered.
		cc.done = append(cc.done, r)
	case err == nil:
		// The replier's timer is set no later than this deadline: the
		// oldest request's, or one InvokeTimeout from when it last looked.
		r.stage = stageWaiting
		cc.link(r)
	}
	cc.mu.Unlock()
	switch {
	case completed:
		cc.wakeReplier()
	case err != nil:
		// Refused before it was multicast: answered here, and the request
		// goes back unused.
		cc.recycle(r)
		cc.fail(msg.Header, req.RequestID, tkey, arrived, err)
		gw.finish(release)
	}
}

// finish ends an admitted request's accounting. The gauge drops before
// the admission slot is released, so it never reads above the in-flight
// window.
func (g *Gateway) finish(release func()) {
	g.inflight.Add(-1)
	release()
}

// fail answers a request the domain did not answer with the exception
// that says why.
func (cc *clientConn) fail(h giop.Header, id uint32, tkey obs.TraceKey, arrived time.Time, err error) {
	gw := cc.gw
	gw.requestsAbandoned.Add(1)
	gw.exceptions.Add(1)
	cc.writeReplyRaw(h, id, giop.Reply{
		Status: giop.ReplySystemException,
		Result: invokeFailure(h.Order, err),
	})
	gw.tracer.Event(tkey, obs.StageReplyWrite, "gateway-exception")
	// Abandoned and excepted requests are exactly the slow ones; the
	// latency histogram must include them.
	gw.observeLatency(arrived)
}

// newRequest returns a request for the read loop to convey, stage
// conveying: a free one, or a new one while all are in flight.
func (cc *clientConn) newRequest() *request {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	var r *request
	if n := len(cc.free); n > 0 {
		r = cc.free[n-1]
		cc.free[n-1] = nil
		cc.free = cc.free[:n-1]
	} else {
		r = &request{cc: cc}
	}
	r.stage = stageConveying
	return r
}

// recycle frees an answered request for the read loop to reuse. Its call
// must be released.
func (cc *clientConn) recycle(r *request) {
	cc.mu.Lock()
	*r = request{cc: cc}
	cc.free = append(cc.free, r)
	cc.mu.Unlock()
}

// reply is a connection's replier. It answers every request the domain
// completed, in the order they completed, and the oldest request still
// waiting once its deadline passed, on one timer: set to that deadline,
// or, with nothing waiting, one InvokeTimeout ahead — no later than the
// deadline of any request read after — so that queueing a request never
// has to wake it. It ends, closing the connection and announcing the
// client's departure, when the read loop has ended and nothing is left
// to answer.
func (cc *clientConn) reply() {
	gw := cc.gw
	defer gw.wg.Done()
	timer := time.NewTimer(gw.cfg.InvokeTimeout)
	defer timer.Stop()
	var batch []*request
	for {
		cc.mu.Lock()
		batch, cc.done = cc.done, batch[:0]
		now := time.Now()
		for r := cc.oldest; r != nil && !r.deadline.After(now); r = cc.oldest {
			cc.unlink(r)
			r.stage = stageExpired
			batch = append(batch, r)
		}
		wait := gw.cfg.InvokeTimeout
		if cc.oldest != nil {
			wait = cc.oldest.deadline.Sub(now)
		}
		over := !cc.reading && cc.oldest == nil && len(batch) == 0
		cc.mu.Unlock()
		if len(batch) > 0 {
			for i, r := range batch {
				cc.answer(r)
				batch[i] = nil
			}
			continue
		}
		if over {
			gw.closeConn(cc)
			return
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-cc.wake:
		case <-timer.C:
		}
	}
}

// answer writes the reply to a request the replier took: the domain's
// response, or the exception for a request that had none by its deadline
// or whose wait was stopped; a request the client cancelled is answered
// with nothing. Then it frees the request's call, admission slot and
// itself.
func (cc *clientConn) answer(r *request) {
	gw := cc.gw
	// From here on no response completes the request.
	gw.rm.Release(&r.call)
	h := giop.Header{Order: r.order, Minor: r.minor}
	var rep giop.Reply
	err := replication.ErrTimeout
	if r.stage == stageDone {
		rep, err = r.res.Reply()
	}
	switch {
	case err != nil:
		cc.fail(h, r.id, r.tkey, r.arrived, err)
	case r.cancelled:
		gw.observeLatency(r.arrived)
	default:
		gw.repliesReturned.Add(1)
		cc.writeReplyRaw(h, r.id, rep)
		gw.tracer.Event(r.tkey, obs.StageReplyWrite, "gateway")
		gw.observeLatency(r.arrived)
	}
	release := r.release
	cc.recycle(r)
	gw.finish(release)
}

// closeConn ends a connection whose read loop ended and whose requests are
// all answered: it closes the socket, frees its admission slots and tells
// the other gateways of the client's departure, so that they delete any
// state stored on the client's behalf (section 3.5).
func (g *Gateway) closeConn(cc *clientConn) {
	_ = cc.nc.Close()
	g.mu.Lock()
	delete(g.conns, cc.nc)
	g.mu.Unlock()
	g.adm.ReleaseConn(cc.host)
	g.announceDepartures(cc)
}

// invokeFailure answers a request whose conveyance failed: COMPLETED_NO
// only if it was never multicast, since a plain client told so reissues it
// under a new request id (section 3.4).
func invokeFailure(order cdr.ByteOrder, err error) []byte {
	switch {
	case errors.Is(err, replication.ErrNoQuorum):
		return giop.Transient.Body(order, minorNoQuorum)
	case errors.Is(err, replication.ErrTimeout), errors.Is(err, replication.ErrStopped):
		return giop.CommFailureMaybe.Body(order, minorOutcomeUnknown)
	default:
		return giop.CommFailureNo.Body(order, minorInvokeFailed)
	}
}

// cancelRequest marks the in-flight requests with the id as cancelled:
// their replies are not written. A cancel for any other id (already
// answered, or never sent) is dropped: kept, it would grow without bound
// under a stream of cancels and suppress the reply of a later request
// reusing the id.
func (cc *clientConn) cancelRequest(id uint32) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for r := cc.oldest; r != nil; r = r.next {
		if r.id == id {
			r.cancelled = true
		}
	}
	for _, r := range cc.done {
		if r.id == id {
			r.cancelled = true
		}
	}
}

// refuseOversize answers a message the reassembler refused by the size
// its header declared: the body was read and dropped, msg holds the first
// bytes of it — the request header, the arguments cut short — and the
// connection is still in step. A request is answered IMP_LIMIT,
// COMPLETED_NO: it went nowhere, and a smaller one is welcome.
func (cc *clientConn) refuseOversize(msg giop.Message) {
	gw := cc.gw
	gw.requestsTooLarge.Add(1)
	gw.log.Warn("message refused: the domain's transport carries no such datagram", "type", msg.Header.Type, "bytes", msg.Header.Size, "remote", cc.nc.RemoteAddr())
	if msg.Header.Type != giop.MsgRequest {
		return
	}
	req, err := giop.DecodeRequest(msg)
	if err != nil {
		cc.write(giop.EncodeMessageError(msg.Header.Order))
		return
	}
	gw.requestsReceived.Add(1)
	gw.exceptions.Add(1)
	if req.ResponseExpected {
		cc.writeReplyRaw(msg.Header, req.RequestID, giop.Reply{
			Status: giop.ReplySystemException,
			Result: giop.ImpLimitNo.Body(msg.Header.Order, minorRequestTooLarge),
		})
	}
}

// shedReply refuses an invocation with a TRANSIENT system exception —
// the CORBA "try again" signal. completed=COMPLETED_NO tells the client
// the operation never entered the total order, so an immediate retry (or
// a failover to a redundant gateway) is always safe. The admission
// verdict travels in the minor code so operators can tell shed causes
// apart on the wire.
func (cc *clientConn) shedReply(msg giop.Message, req giop.Request, v admission.Verdict) {
	gw := cc.gw
	gw.requestsShed.Add(1)
	gw.exceptions.Add(1)
	if !req.ResponseExpected {
		return
	}
	cc.writeReplyRaw(msg.Header, req.RequestID, giop.Reply{
		Status: giop.ReplySystemException,
		Result: giop.Transient.Body(msg.Header.Order, v),
	})
}

// writeReplyRaw frames the reply to request id in the byte order and
// version of the client's request, h, and writes it to the socket: the
// head built here and the result — a view onto the delivered datagram —
// from where it lies, in one gathered write. A reply that has to be
// fragmented is encoded whole, so each frame is one Write.
func (cc *clientConn) writeReplyRaw(h giop.Header, id uint32, rep giop.Reply) {
	rep.RequestID = id
	order, minor := h.Order, h.Minor
	if minor >= 1 && giop.ReplySizeBound(rep) > giop.DefaultFragmentSize {
		out, err := giop.EncodeReplyV(order, minor, rep)
		if err != nil {
			cc.gw.log.Error("encode reply", "err", err)
			return
		}
		cc.write(out)
		return
	}
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	head, err := giop.AppendReplyHead(cc.whead[:0], order, minor, rep)
	if err != nil {
		cc.gw.log.Error("encode reply", "err", err)
		return
	}
	cc.whead = head
	cc.wbufs = append(cc.wvec[:0], head, rep.Result)
	if _, err := cc.wbufs.WriteTo(cc.nc); err != nil {
		cc.gw.log.Warn("write failed", "remote", cc.nc.RemoteAddr(), "err", err)
	}
	cc.wvec[1] = nil // the result is the datagram's, not this connection's to hold
}

func (cc *clientConn) handleLocate(msg giop.Message) {
	lr, err := giop.DecodeLocateRequest(msg)
	if err != nil {
		return
	}
	status := giop.LocateUnknownObject
	if _, ok := cc.gw.rm.GroupByKey(lr.ObjectKey); ok {
		// The gateway claims to be the object (paper section 3.1).
		status = giop.LocateObjectHere
	}
	cc.write(giop.EncodeLocateReply(msg.Header.Order, giop.LocateReply{
		RequestID: lr.RequestID,
		Status:    status,
	}))
}

// announceDepartures tells the gateway group that a TCP client's
// connection ended, one notification per server group the connection
// used and the identifier it had there (a counter value repeats across
// groups), so every gateway deletes the state it stored on the client's
// behalf. Enhanced clients are exempt: their identifiers outlive
// connections by design (that is what makes failover reissues
// recognizable), so their records age out of the bounded table instead.
func (g *Gateway) announceDepartures(cc *clientConn) {
	cc.mu.Lock()
	ids := maps.Clone(cc.ids)
	cc.mu.Unlock()
	for group, id := range ids {
		_ = g.rm.MulticastMessage(replication.Message{
			Header: replication.Header{
				Kind:     replication.KindGatewayControl,
				ClientID: id,
				SrcGroup: group,
				DstGroup: g.cfg.Group,
			},
		})
	}
}

// cachedReply returns the gateway-group record's response to a reissued
// invocation, decoding the raw reply its processor kept. A record that
// fails to decode (it was malformed on the wire) reads as a miss.
func (g *Gateway) cachedReply(group replication.GroupID, clientID uint64, op replication.OperationID) (giop.Reply, bool) {
	raw, ok := g.rm.RecordedReply(group, clientID, op)
	if !ok {
		return giop.Reply{}, false
	}
	wire, err := giop.Unmarshal(raw)
	if err != nil {
		return giop.Reply{}, false
	}
	rep, err := giop.DecodeReply(wire)
	if err != nil {
		return giop.Reply{}, false
	}
	return rep, true
}

// RecordedReplies reports how many responses the gateway's processor
// currently holds in the gateway-group record (diagnostics and tests).
func (g *Gateway) RecordedReplies() int {
	n, _, _ := g.rm.RecordedReplies()
	return n
}
