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
)

// repoIDTransient is the CORBA system exception the gateway raises when
// admission control sheds a request: the standard "try again later"
// exception, carrying the shed reason as its minor code
// (admission.Verdict.Minor; see docs/OPERATIONS.md for the contract).
const repoIDTransient = "IDL:omg.org/CORBA/TRANSIENT:1.0"

// Minor codes for the system exceptions the gateway itself fabricates
// (shed replies carry admission.Verdict.Minor instead). Documented in
// docs/OPERATIONS.md; the completedno analyzer rejects bare literals
// here so every code stays in that table.
const (
	// minorUnknownObjectKey: OBJECT_NOT_EXIST — the request's object key
	// matches no replicated group at this gateway.
	minorUnknownObjectKey uint32 = 0
	// minorInvokeFailed: COMM_FAILURE — conveying the request through
	// the fault tolerance domain failed or timed out.
	minorInvokeFailed uint32 = 0
	// minorRequestTooLarge: IMP_LIMIT — the request's header declares more
	// than one datagram of the domain's transport carries. Refused before
	// its body was read; it never entered the total order.
	minorRequestTooLarge uint32 = 1
)

// Errors reported by the gateway.
var ErrClosed = errors.New("gateway: closed")

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
	Log *obs.Logger
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
	log    *obs.Logger
	tracer *obs.Tracer
	adm    *admission.Controller
	// reqHist, non-nil only when cfg.Metrics is set, records round-trip
	// latency of response-expected requests over a sliding window.
	reqHist *obs.Histogram

	// draining is set by Drain: new requests are shed with TRANSIENT and
	// the accept loop stops, while in-flight invocations bleed out.
	draining atomic.Bool
	// inflight counts requests currently being conveyed through the
	// domain; Drain waits for it to reach zero. Tracked by the gateway
	// itself so drain works with admission disabled too.
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
		log:           cfg.Log.With("gateway"),
		tracer:        cfg.Tracer,
		adm:           cfg.Admission,
		conns:         make(map[net.Conn]*clientConn),
		counters:      make(map[replication.GroupID]uint64),
		acceptStop:    make(chan struct{}),
		instanceNonce: binary.BigEndian.Uint64(nonce[:]) &^ counterIDBit,
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
		g.log.Warnf("drain: %d invocations still in flight at deadline", n)
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
			g.log.Infof("shedding connection from %s: %s", conn.RemoteAddr(), v)
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
		cc := &clientConn{gw: g, nc: conn, ids: make(map[replication.GroupID]uint64), inflight: make(map[uint32]bool)}
		g.conns[conn] = cc
		g.mu.Unlock()
		g.connectionsAccepted.Add(1)
		g.wg.Add(1)
		go g.serveConn(cc, host)
	}
}

// clientConn is the per-TCP-client state of figure 5a: the client
// identifiers assigned for each destination server group.
type clientConn struct {
	gw  *Gateway
	nc  net.Conn
	wmu sync.Mutex
	// The gathered reply write's scratch, under wmu: the reply's head,
	// the write's two buffers, and the slice of them WriteTo consumes.
	whead []byte
	wvec  [2][]byte
	wbufs net.Buffers

	mu  sync.Mutex
	ids map[replication.GroupID]uint64
	// inflight holds the request ids being served on this connection;
	// true once the client cancelled the request. An entry lives from
	// the request's arrival to its completion, so the map is bounded by
	// the connection's in-flight requests whatever the client sends.
	inflight map[uint32]bool
}

// serveConn handles one external client: the gateway spawned a dedicated
// socket for it and keeps listening for further clients on the original
// socket (paper section 3.1). When the client departs, the gateway
// informs the other gateways so they can delete any state stored on the
// client's behalf (section 3.5).
func (g *Gateway) serveConn(cc *clientConn, host string) {
	defer g.wg.Done()
	nc := cc.nc
	defer func() {
		_ = nc.Close()
		g.mu.Lock()
		delete(g.conns, nc)
		g.mu.Unlock()
		g.adm.ReleaseConn(host)
		g.announceDepartures(cc)
	}()
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	// A request is read into the buffer it is multicast from: behind the
	// room the domain's headers take, and no longer than one datagram of
	// its transport carries.
	room, ceiling := g.rm.Headroom()
	ra := giop.NewReassembler(nc, max(0, ceiling-room-giop.HeaderSize))
	ra.Room = room
	for {
		msg, err := ra.Next()
		if msg.Body != nil && errors.Is(err, giop.ErrTooLarge) {
			// Refused, and read past: the connection is still in step.
			cc.refuseOversize(msg)
			continue
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				g.log.Warnf("connection %s: %v", nc.RemoteAddr(), err)
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
			req, err := giop.DecodeRequest(msg)
			if err != nil {
				g.log.Warnf("bad request from %s: %v", nc.RemoteAddr(), err)
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
				cc.writeReplyRaw(msg, req, giop.Reply{
					RequestID: req.RequestID,
					Status:    giop.ReplySystemException,
					Result:    giop.SystemExceptionBody(msg.Header.Order, "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0", minorUnknownObjectKey, giop.CompletedNo),
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
			// The goroutine spawn is gated by the in-flight window above:
			// under overload the gateway sheds instead of growing without
			// bound.
			g.inflight.Add(1)
			reqWG.Add(1)
			cc.beginRequest(req.RequestID)
			go func() {
				defer reqWG.Done()
				// The gauge drops before the admission slot is released,
				// so it never reads above the in-flight window.
				defer release()
				defer g.inflight.Add(-1)
				cc.handleRequest(msg, req, arrived, group, clientID)
			}()
		case giop.MsgLocateRequest:
			cc.handleLocate(msg)
		case giop.MsgCloseConn:
			return
		case giop.MsgCancelRequest:
			// The invocation is already in the total order and will
			// execute (it cannot be unsent, in CORBA or here); the
			// client has merely declared it no longer wants the reply,
			// so the gateway stops holding the socket for it.
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
		cc.gw.log.Warnf("write to %s: %v", cc.nc.RemoteAddr(), err)
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

// handleRequest implements figure 5a: resolve the object key to the
// server group, tag the request with the client and operation
// identifiers, convey it into the fault tolerance domain, and return the
// (first, deduplicated) response over the client's socket.
func (cc *clientConn) handleRequest(msg giop.Message, req giop.Request, arrived time.Time, group replication.GroupID, clientID uint64) {
	gw := cc.gw
	defer cc.endRequest(req.RequestID)
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
			cc.writeReplyRaw(msg, req, rep)
			gw.tracer.Event(tkey, obs.StageReplyWrite, "gateway")
		}
		gw.observeLatency(arrived)
		return
	}

	gw.requestsForwarded.Add(1)
	if !req.ResponseExpected {
		// One-way request: convey it into the domain without waiting
		// for (or ever receiving) a response.
		if err := gw.rm.MulticastFrame(gw.cfg.Group, clientID, group, op, msg.Frame); err != nil {
			gw.requestsAbandoned.Add(1)
		}
		return
	}
	rep, err := gw.rm.InvokeFrame(gw.cfg.Group, clientID, group, op, msg.Frame, gw.cfg.InvokeTimeout)
	if err != nil {
		gw.requestsAbandoned.Add(1)
		gw.exceptions.Add(1)
		if req.ResponseExpected {
			cc.writeReplyRaw(msg, req, giop.Reply{
				RequestID: req.RequestID,
				Status:    giop.ReplySystemException,
				Result:    giop.SystemExceptionBody(msg.Header.Order, "IDL:omg.org/CORBA/COMM_FAILURE:1.0", minorInvokeFailed, giop.CompletedNo),
			})
			gw.tracer.Event(tkey, obs.StageReplyWrite, "gateway-exception")
		}
		// Abandoned and excepted requests are exactly the slow ones; the
		// latency histogram must include them.
		gw.observeLatency(arrived)
		return
	}
	if req.ResponseExpected && !cc.isCancelled(req.RequestID) {
		gw.repliesReturned.Add(1)
		cc.writeReplyRaw(msg, req, rep)
		gw.tracer.Event(tkey, obs.StageReplyWrite, "gateway")
	}
	gw.observeLatency(arrived)
}

// beginRequest notes a request id as in flight. The read loop calls it
// before handing the request to its goroutine, so a CancelRequest right
// behind the request on the wire finds it.
func (cc *clientConn) beginRequest(id uint32) {
	cc.mu.Lock()
	cc.inflight[id] = false
	cc.mu.Unlock()
}

// cancelRequest marks an in-flight request as cancelled. A cancel for
// any other id (already answered, or never sent) is dropped: kept, it
// would grow without bound under a stream of cancels and suppress the
// reply of a later request reusing the id.
func (cc *clientConn) cancelRequest(id uint32) {
	cc.mu.Lock()
	if _, ok := cc.inflight[id]; ok {
		cc.inflight[id] = true
	}
	cc.mu.Unlock()
}

// isCancelled reports whether the client cancelled an in-flight request.
func (cc *clientConn) isCancelled(id uint32) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.inflight[id]
}

// endRequest forgets a completed request, and any cancel mark with it.
func (cc *clientConn) endRequest(id uint32) {
	cc.mu.Lock()
	delete(cc.inflight, id)
	cc.mu.Unlock()
}

// refuseOversize answers a message the reassembler refused by the size
// its header declared: the body was read and dropped, msg holds the first
// bytes of it — the request header, the arguments cut short — and the
// connection is still in step. A request is answered IMP_LIMIT,
// COMPLETED_NO: it went nowhere, and a smaller one is welcome.
func (cc *clientConn) refuseOversize(msg giop.Message) {
	gw := cc.gw
	gw.requestsTooLarge.Add(1)
	gw.log.Warnf("%v of %d bytes from %s refused: the domain's transport carries no such datagram", msg.Header.Type, msg.Header.Size, cc.nc.RemoteAddr())
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
		cc.writeReplyRaw(msg, req, giop.Reply{
			RequestID: req.RequestID,
			Status:    giop.ReplySystemException,
			Result:    giop.SystemExceptionBody(msg.Header.Order, "IDL:omg.org/CORBA/IMP_LIMIT:1.0", minorRequestTooLarge, giop.CompletedNo),
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
	cc.writeReplyRaw(msg, req, giop.Reply{
		RequestID: req.RequestID,
		Status:    giop.ReplySystemException,
		Result:    giop.SystemExceptionBody(msg.Header.Order, repoIDTransient, v.Minor(), giop.CompletedNo),
	})
}

// writeReplyRaw frames a reply in the byte order and version of the
// client's request and writes it to the socket: the head built here and
// the result — a view onto the delivered datagram — from where it lies,
// in one gathered write. A reply that has to be fragmented is encoded
// whole, so each frame is one Write.
func (cc *clientConn) writeReplyRaw(msg giop.Message, req giop.Request, rep giop.Reply) {
	rep.RequestID = req.RequestID
	order, minor := msg.Header.Order, msg.Header.Minor
	if minor >= 1 && giop.ReplySizeBound(rep) > giop.DefaultFragmentSize {
		out, err := giop.EncodeReplyV(order, minor, rep)
		if err != nil {
			cc.gw.log.Errorf("encode reply: %v", err)
			return
		}
		cc.write(out)
		return
	}
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	head, err := giop.AppendReplyHead(cc.whead[:0], order, minor, rep)
	if err != nil {
		cc.gw.log.Errorf("encode reply: %v", err)
		return
	}
	cc.whead = head
	cc.wbufs = append(cc.wvec[:0], head, rep.Result)
	if _, err := cc.wbufs.WriteTo(cc.nc); err != nil {
		cc.gw.log.Warnf("write to %s: %v", cc.nc.RemoteAddr(), err)
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
