// Package admission implements the gateway's admission control and
// overload protection layer: the serving-stack discipline that keeps the
// paper's gateway — the single funnel through which every unreplicated
// client enters a fault tolerance domain (paper sections 3.1–3.3) —
// bounded under load instead of accepting unbounded TCP connections and
// holding unbounded in-flight state.
//
// The layer has four mechanisms:
//
//   - Connection caps: a global concurrent-connection limit enforced as
//     accept-loop backpressure (the accept loop blocks before accepting
//     when the gateway is full, letting the kernel listen backlog and
//     ultimately TCP do the pushback) plus a per-client-address cap
//     enforced at accept time.
//   - Request policing: a per-client token-bucket rate limit keyed by the
//     paper's TCP client identifier, and a bounded in-flight window with
//     deadline-based load shedding — a request may wait AdmitWait for an
//     in-flight slot, after which it is shed.
//   - A breaker driven by domain-side backpressure (totem send backlog
//     and pending-call occupancy, exported by internal/replication):
//     when the signal stays above the threshold for the sustain period,
//     the breaker opens and new connections are shed at accept time
//     until the domain recovers and the cooldown elapses.
//   - Graceful drain: BeginDrain stops admitting new connections and
//     requests so the gateway can bleed in-flight operations to
//     completion and hand remaining clients to the redundant gateway
//     group (internal/core drives the protocol side).
//
// The controller is deliberately mechanism-only: it decides
// admit/shed/wait and counts outcomes; the gateway (internal/core) owns
// the protocol consequences (GIOP TRANSIENT system exceptions for shed
// requests, CloseConnection for shed connections). A nil *Controller is
// a valid no-op that admits everything, so the gateway datapath pays one
// nil check when admission is disabled — the same idiom internal/obs
// uses for its nil registry and tracer.
package admission

import (
	"sync"
	"sync/atomic"
	"time"
)

// Verdict is an admission decision. Admit is the zero value; the shed
// verdicts name the mechanism that rejected the work.
type Verdict uint8

// Admission verdicts.
const (
	// Admit lets the connection or request through.
	Admit Verdict = iota
	// ShedRate rejects a request because the client's token bucket is
	// empty (sustained rate above Config.Rate).
	ShedRate
	// ShedWindow rejects a request because the in-flight window stayed
	// full past the AdmitWait deadline.
	ShedWindow
	// ShedBreaker rejects a connection because the domain-backpressure
	// breaker is open.
	ShedBreaker
	// ShedDraining rejects work because the gateway is draining.
	ShedDraining
	// ShedConnPerClient rejects a connection because the client address
	// already holds Config.MaxConnsPerClient connections.
	ShedConnPerClient
)

// String names the verdict for logs and status pages.
func (v Verdict) String() string {
	switch v {
	case Admit:
		return "admit"
	case ShedRate:
		return "shed-rate"
	case ShedWindow:
		return "shed-window"
	case ShedBreaker:
		return "shed-breaker"
	case ShedDraining:
		return "shed-draining"
	case ShedConnPerClient:
		return "shed-conn-per-client"
	default:
		return "unknown"
	}
}

// Minor is the minor code the gateway carries in the GIOP TRANSIENT
// system exception when it sheds a request with this verdict, so clients
// (and tests) can tell the shed reasons apart. Part of the shed-reply
// contract documented in docs/OPERATIONS.md.
func (v Verdict) Minor() uint32 { return uint32(v) }

// Config parameterizes a Controller. The zero value of every field means
// "unlimited" / "disabled", so an empty Config admits everything.
type Config struct {
	// MaxConns caps concurrently open external connections. At the cap
	// the accept loop blocks (backpressure) instead of accepting.
	// Zero means unlimited.
	MaxConns int
	// MaxConnsPerClient caps concurrently open connections per client
	// address (host, not host:port). Zero means unlimited.
	MaxConnsPerClient int
	// Rate is the per-client sustained admission rate in requests per
	// second, enforced with a token bucket keyed by the paper's TCP
	// client identifier and twice Rate deep (at least one request), so a
	// client may issue two seconds' worth back-to-back. Zero means
	// unlimited.
	Rate float64
	// MaxInFlight caps requests concurrently admitted into the domain
	// across all clients. Zero means unlimited.
	MaxInFlight int
	// AdmitWait is how long a request may wait for a free slot in the
	// global in-flight window before it is shed (deadline-based load
	// shedding). Zero sheds immediately when the window is full.
	AdmitWait time.Duration
	// Backpressure, when set, is sampled as the domain-side load signal
	// driving the breaker: a value in [0,1], typically
	// replication.Mechanisms.Backpressure. Nil disables the breaker.
	Backpressure func() float64
}

// clientTableSize bounds the per-client token buckets. When the table is
// full an entry is evicted; a re-appearing client simply starts with a
// fresh bucket.
const clientTableSize = 4096

// Stats snapshots the controller's counters and state.
type Stats struct {
	Admitted         uint64 // requests admitted into the domain
	ShedRate         uint64 // requests shed by the token bucket
	ShedWindow       uint64 // requests shed by the in-flight window
	ShedDraining     uint64 // requests shed while draining
	ConnsOverCap     uint64 // connections shed by the per-client cap
	ConnsShedBreaker uint64 // connections shed by the open breaker
	ConnsShedDrain   uint64 // connections shed while draining
	BreakerTrips     uint64 // times the breaker opened
	BreakerOpen      bool
	Draining         bool
	InFlight         int64 // requests currently admitted
}

// clientState is one client identifier's token bucket.
type clientState struct {
	tokens float64
	last   time.Time
}

// Controller enforces one gateway's admission policy. Create with New;
// a nil *Controller admits everything.
type Controller struct {
	cfg Config
	// burst is the token-bucket depth: twice Rate, at least one request.
	burst float64
	// connSlots is the global connection semaphore (nil = unlimited).
	connSlots chan struct{}
	// window is the global in-flight semaphore (nil = unlimited).
	window chan struct{}
	br     *breaker

	draining atomic.Bool
	inFlight atomic.Int64

	mu      sync.Mutex
	hosts   map[string]int
	clients map[uint64]*clientState

	admitted         atomic.Uint64
	shedRate         atomic.Uint64
	shedWindow       atomic.Uint64
	shedDraining     atomic.Uint64
	connsOverCap     atomic.Uint64
	connsShedBreaker atomic.Uint64
	connsShedDrain   atomic.Uint64
}

// New builds a controller from cfg.
func New(cfg Config) *Controller {
	c := &Controller{
		cfg:     cfg,
		burst:   float64(max(1, int(2*cfg.Rate))),
		hosts:   make(map[string]int),
		clients: make(map[uint64]*clientState),
		br:      newBreaker(cfg),
	}
	if cfg.MaxConns > 0 {
		c.connSlots = make(chan struct{}, cfg.MaxConns)
	}
	if cfg.MaxInFlight > 0 {
		c.window = make(chan struct{}, cfg.MaxInFlight)
	}
	return c
}

// Stats snapshots the counters.
func (c *Controller) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Admitted:         c.admitted.Load(),
		ShedRate:         c.shedRate.Load(),
		ShedWindow:       c.shedWindow.Load(),
		ShedDraining:     c.shedDraining.Load(),
		ConnsOverCap:     c.connsOverCap.Load(),
		ConnsShedBreaker: c.connsShedBreaker.Load(),
		ConnsShedDrain:   c.connsShedDrain.Load(),
		BreakerTrips:     c.br.tripCount(),
		BreakerOpen:      c.br.isOpen(),
		Draining:         c.draining.Load(),
		InFlight:         c.inFlight.Load(),
	}
}

// --- connection admission --------------------------------------------------

// ReserveConn blocks until a global connection slot is free, providing
// the accept-loop backpressure: at MaxConns the gateway simply stops
// calling Accept, so further clients queue in the kernel listen backlog
// instead of consuming gateway state. Returns false when cancel fires or
// the controller is draining; the caller then stops accepting.
func (c *Controller) ReserveConn(cancel <-chan struct{}) bool {
	if c == nil {
		return true
	}
	if c.draining.Load() {
		return false
	}
	if c.connSlots == nil {
		return true
	}
	select {
	case c.connSlots <- struct{}{}:
		if c.draining.Load() {
			<-c.connSlots
			return false
		}
		return true
	case <-cancel:
		return false
	}
}

// UnreserveConn returns an unused reservation (the accept failed).
func (c *Controller) UnreserveConn() {
	if c == nil {
		return
	}
	if c.connSlots != nil {
		<-c.connSlots
	}
}

// AdmitConn judges one reserved connection from the given client address
// (host only). On Admit the connection is registered and must be paired
// with ReleaseConn; on any shed verdict the reservation is already
// returned and the caller only closes the socket.
func (c *Controller) AdmitConn(host string) Verdict {
	if c == nil {
		return Admit
	}
	if c.draining.Load() {
		c.connsShedDrain.Add(1)
		c.UnreserveConn()
		return ShedDraining
	}
	if c.br.sample(time.Now()) {
		c.connsShedBreaker.Add(1)
		c.UnreserveConn()
		return ShedBreaker
	}
	if c.cfg.MaxConnsPerClient > 0 {
		c.mu.Lock()
		if c.hosts[host] >= c.cfg.MaxConnsPerClient {
			c.mu.Unlock()
			c.connsOverCap.Add(1)
			c.UnreserveConn()
			return ShedConnPerClient
		}
		c.hosts[host]++
		c.mu.Unlock()
	}
	return Admit
}

// ReleaseConn unregisters an admitted connection.
func (c *Controller) ReleaseConn(host string) {
	if c == nil {
		return
	}
	if c.cfg.MaxConnsPerClient > 0 {
		c.mu.Lock()
		if n := c.hosts[host]; n <= 1 {
			delete(c.hosts, host)
		} else {
			c.hosts[host] = n - 1
		}
		c.mu.Unlock()
	}
	c.UnreserveConn()
}

// --- request admission -----------------------------------------------------

// noopRelease is handed out on paths that acquired nothing, so callers
// can always defer the release.
func noopRelease() {}

// AdmitRequest judges one decoded request from the given client
// identifier. On Admit the returned release function must be called when
// the request completes (it frees the request's in-flight slot); it is
// safe to call exactly once. On a shed verdict release is a no-op and
// the gateway answers the client with a GIOP TRANSIENT system exception
// carrying Verdict.Minor.
//
// A full global in-flight window blocks the caller up to AdmitWait
// before shedding; since the gateway calls this on the connection's read
// loop, the wait also exerts per-connection backpressure on pipelined
// clients.
func (c *Controller) AdmitRequest(clientID uint64) (release func(), v Verdict) {
	if c == nil {
		return noopRelease, Admit
	}
	if c.draining.Load() {
		c.shedDraining.Add(1)
		return noopRelease, ShedDraining
	}
	// Keep the breaker's view of the domain fresh even between accepts;
	// the breaker sheds connections, not individual requests.
	c.br.sample(time.Now())

	if c.cfg.Rate > 0 {
		c.mu.Lock()
		ok := c.takeToken(c.client(clientID))
		c.mu.Unlock()
		if !ok {
			c.shedRate.Add(1)
			return noopRelease, ShedRate
		}
	}
	if c.window != nil && !c.acquireWindow() {
		c.shedWindow.Add(1)
		return noopRelease, ShedWindow
	}
	c.admitted.Add(1)
	c.inFlight.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			c.inFlight.Add(-1)
			if c.window != nil {
				<-c.window
			}
		})
	}, Admit
}

// acquireWindow takes a global in-flight slot, waiting up to AdmitWait.
func (c *Controller) acquireWindow() bool {
	select {
	case c.window <- struct{}{}:
		return true
	default:
	}
	if c.cfg.AdmitWait <= 0 {
		return false
	}
	timer := time.NewTimer(c.cfg.AdmitWait)
	defer timer.Stop()
	select {
	case c.window <- struct{}{}:
		return true
	case <-timer.C:
		return false
	}
}

// client returns (creating if needed) the state for a client identifier.
// Callers hold c.mu. When the table is full an entry is evicted; the
// evicted client restarts with a full bucket if it returns, which errs on
// the side of admitting.
func (c *Controller) client(id uint64) *clientState {
	if cs, ok := c.clients[id]; ok {
		return cs
	}
	if len(c.clients) >= clientTableSize {
		for k := range c.clients {
			delete(c.clients, k)
			break
		}
	}
	cs := &clientState{tokens: c.burst, last: time.Now()}
	c.clients[id] = cs
	return cs
}

// takeToken refills and debits the client's token bucket. Callers hold
// c.mu.
func (c *Controller) takeToken(cs *clientState) bool {
	now := time.Now()
	if elapsed := now.Sub(cs.last); elapsed > 0 {
		cs.tokens += elapsed.Seconds() * c.cfg.Rate
		cs.tokens = min(cs.tokens, c.burst)
	}
	cs.last = now
	if cs.tokens < 1 {
		return false
	}
	cs.tokens--
	return true
}

// TrackedClients reports how many client identifiers currently hold
// admission state (diagnostics).
func (c *Controller) TrackedClients() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.clients)
}

// --- drain -----------------------------------------------------------------

// BeginDrain flips the controller into drain mode: every subsequent
// connection and request is shed. Idempotent.
func (c *Controller) BeginDrain() {
	if c == nil {
		return
	}
	c.draining.Store(true)
}

// Draining reports whether BeginDrain has been called.
func (c *Controller) Draining() bool {
	return c != nil && c.draining.Load()
}

// InFlight reports the number of currently admitted requests.
func (c *Controller) InFlight() int64 {
	if c == nil {
		return 0
	}
	return c.inFlight.Load()
}

// BreakerOpen reports whether the backpressure breaker is currently
// open (sampling the signal if it is stale).
func (c *Controller) BreakerOpen() bool {
	if c == nil {
		return false
	}
	return c.br.sample(time.Now())
}
