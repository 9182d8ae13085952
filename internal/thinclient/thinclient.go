// Package thinclient implements the thin client-side interception layer
// of paper section 3.5: the support an enhanced client-side ORB would
// provide so that unreplicated CORBA clients benefit from redundant
// gateways.
//
// The layer connects the client to the first gateway listed in a
// multi-profile IOR, inserts a unique client identifier into the service
// context of every outgoing IIOP request, and — when the connected
// gateway fails — transparently traverses to the next profile, reconnects
// and reissues the pending invocations with their original request
// identifiers. The identifiers let the gateways detect the reissues, so
// operations are neither lost nor executed twice.
package thinclient

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/ior"
	"eternalgw/internal/orb"
)

// Errors reported by the layer.
var (
	// ErrAllGatewaysDown reports that every profile in the IOR was tried
	// and none produced a response.
	ErrAllGatewaysDown = errors.New("thinclient: all gateways unreachable")
)

// Config parameterizes a Client.
type Config struct {
	// CallTimeout bounds one attempt against one gateway; on expiry the
	// layer fails over to the next profile. Zero means 5s.
	CallTimeout time.Duration
	// DialTimeout bounds one connection attempt. Zero means 2s.
	DialTimeout time.Duration
	// MaxRounds is how many times the full profile list is traversed
	// before giving up. Zero means 2.
	MaxRounds int
	// UniqueID overrides the randomly generated client identifier.
	// Replicated bridge clients (gateways of one domain calling into
	// another, figure 1) use a deterministic identifier so that every
	// bridge replica's requests deduplicate to one operation at the
	// target domain.
	UniqueID []byte
	// ShedBackoff is how long the layer waits before retrying an
	// invocation a gateway shed with a TRANSIENT system exception
	// (admission control, overload, drain). The wait doubles per
	// consecutive shed of the same invocation. Zero means 5ms.
	ShedBackoff time.Duration
	// ShedFailover is how many consecutive TRANSIENT sheds of one
	// invocation the layer tolerates from a gateway before failing over
	// to the next profile (a draining or breaker-tripped gateway sheds
	// everything; a redundant gateway may have capacity). Zero means 2.
	ShedFailover int
}

func (c *Config) applyDefaults() {
	if c.CallTimeout == 0 {
		c.CallTimeout = 5 * time.Second
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 2
	}
	if c.ShedBackoff == 0 {
		c.ShedBackoff = 5 * time.Millisecond
	}
	if c.ShedFailover == 0 {
		c.ShedFailover = 2
	}
}

// Stats snapshots the layer's counters.
type Stats struct {
	Calls     uint64
	Failovers uint64 // profile switches performed
	Reissues  uint64 // invocations reissued after a failover
	Sheds     uint64 // TRANSIENT sheds received and retried
}

// Client is an enhanced unreplicated client bound to one replicated
// object through a multi-profile IOR. It is safe for concurrent use.
type Client struct {
	cfg      Config
	profiles []ior.IIOPProfile
	uniqueID []byte

	mu      sync.Mutex
	conn    *orb.Conn
	gen     int // connection generation; bumped on every reconnect
	profile int // index of the profile the current connection uses
	nextID  uint32
	closed  bool

	calls     uint64
	failovers uint64
	reissues  uint64
	sheds     uint64
}

// Dial builds a client from a (possibly multi-profile) IOR and connects
// to the first reachable gateway.
func Dial(ref ior.Ref, cfg Config) (*Client, error) {
	cfg.applyDefaults()
	profiles, err := ref.IIOPProfiles()
	if err != nil {
		return nil, err
	}
	id := cfg.UniqueID
	if len(id) == 0 {
		id = make([]byte, 16)
		if _, err := rand.Read(id); err != nil {
			return nil, fmt.Errorf("thinclient: generating client id: %w", err)
		}
	}
	c := &Client{cfg: cfg, profiles: profiles, uniqueID: id, nextID: 1, profile: -1}
	if _, _, err := c.ensureConn(-1); err != nil {
		return nil, err
	}
	return c, nil
}

// UniqueID returns the client identifier inserted into every request's
// service context.
func (c *Client) UniqueID() []byte { return append([]byte(nil), c.uniqueID...) }

// Gateway returns the address of the currently connected gateway.
func (c *Client) Gateway() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.profile < 0 {
		return ""
	}
	return c.profiles[c.profile].Addr()
}

// Stats snapshots the counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Calls: c.calls, Failovers: c.failovers, Reissues: c.reissues, Sheds: c.sheds}
}

// Close severs the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// RefreshProfiles rebinds the client to a republished reference, e.g.
// after the domain added or removed gateways (the OnIORUpdate hook of
// the domain package). If the currently connected gateway's address
// survives in the new profile list the connection is kept; otherwise it
// is closed, so the next invocation fails over to a published gateway
// and reissues with its original request identifier.
func (c *Client) RefreshProfiles(ref ior.Ref) error {
	profiles, err := ref.IIOPProfiles()
	if err != nil {
		return err
	}
	if len(profiles) == 0 {
		return errors.New("thinclient: reference has no IIOP profiles")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	current := ""
	if c.conn != nil && c.profile >= 0 && c.profile < len(c.profiles) {
		current = c.profiles[c.profile].Addr()
	}
	c.profiles = profiles
	c.profile = -1
	for i, p := range profiles {
		if current != "" && p.Addr() == current {
			c.profile = i
			break
		}
	}
	if c.conn != nil && c.profile < 0 {
		// The connected gateway was withdrawn: drop the connection now so
		// the next invocation traverses the new profile list instead of
		// waiting for the retired gateway to sever it.
		_ = c.conn.Close()
		c.conn = nil
		c.gen++
	}
	return nil
}

// ensureConn returns a live connection. If badGen names the caller's
// last-seen generation, the connection is assumed broken and the layer
// fails over to the next profile; pass -1 to accept the current one.
func (c *Client) ensureConn(badGen int) (*orb.Conn, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, 0, orb.ErrClosed
	}
	if c.conn != nil && c.gen != badGen {
		return c.conn, c.gen, nil
	}
	// The current connection (if any) is broken: skip to the next
	// profile, as the enhanced ORB of section 3.5 would.
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	start := c.profile
	attempts := len(c.profiles) * c.cfg.MaxRounds
	for i := 1; i <= attempts; i++ {
		idx := (start + i) % len(c.profiles)
		if idx < 0 {
			idx += len(c.profiles)
		}
		conn, err := orb.DialTimeout(c.profiles[idx].Addr(), c.cfg.DialTimeout)
		if err != nil {
			continue
		}
		if start >= 0 && idx != start {
			c.failovers++
		}
		c.conn = conn
		c.profile = idx
		c.gen++
		return c.conn, c.gen, nil
	}
	return nil, 0, ErrAllGatewaysDown
}

// Call invokes op on the referenced object, transparently failing over
// between gateways. The returned reader is positioned at the reply body.
func (c *Client) Call(op string, args []byte) (*cdr.Reader, error) {
	return c.call([]giop.ServiceContext{{ID: giop.FTClientContextID, Data: c.uniqueID}}, op, args)
}

// CallAs is Call for one replica of a replicated caller: the request also
// carries (parentTS, childSeq), the operation identifier figure 6 gives
// the call at every replica (replication.Handle.Next), in the FT_O
// context, and the gateway identifies the operation by it.
func (c *Client) CallAs(parentTS uint64, childSeq uint32, op string, args []byte) (*cdr.Reader, error) {
	return c.call([]giop.ServiceContext{{ID: giop.FTClientContextID, Data: c.uniqueID}, giop.OperationContext(parentTS, childSeq)}, op, args)
}

// call performs the request/reply exchange with the service contexts sc.
// The request id comes from the client's counter; without FT_O the
// gateway takes it for the operation's identifier too.
func (c *Client) call(sc []giop.ServiceContext, op string, args []byte) (*cdr.Reader, error) {
	c.mu.Lock()
	reqID := c.nextID
	c.nextID++
	c.calls++
	c.mu.Unlock()

	badGen := -1
	var lastErr error
	sheds := 0 // consecutive TRANSIENT sheds on the current gateway
	// One attempt per profile per round; the request id never changes,
	// so a gateway that already saw the operation (directly or through
	// the gateway group's record) recognizes the reissue.
	for attempt := 0; attempt < len(c.profiles)*c.cfg.MaxRounds+1; attempt++ {
		conn, gen, err := c.ensureConn(badGen)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		objectKey := c.profiles[c.profile].ObjectKey
		if attempt > 0 {
			c.reissues++
		}
		c.mu.Unlock()

		rep, err := conn.Invoke(objectKey, op, args, orb.InvokeOptions{
			ServiceContexts: sc,
			RequestID:       reqID,
			Timeout:         c.cfg.CallTimeout,
		})
		if err == nil {
			if c.shedVerdict(rep) {
				// The gateway shed this invocation with TRANSIENT
				// (completed NO — it never entered the total order, so
				// retrying is always safe). Back off and retry; after
				// ShedFailover consecutive sheds the gateway is treated
				// as unavailable and the layer moves to the next profile.
				c.mu.Lock()
				c.sheds++
				c.mu.Unlock()
				sheds++
				lastErr = fmt.Errorf("thinclient: gateway shed request %d", reqID)
				backoff := c.cfg.ShedBackoff << uint(min(sheds-1, 4))
				if sheds >= c.cfg.ShedFailover {
					sheds = 0
					badGen = gen
				} else {
					badGen = -1
				}
				time.Sleep(backoff)
				continue
			}
			return orb.ReplyReader(rep)
		}
		sheds = 0
		lastErr = err
		badGen = gen
	}
	return nil, fmt.Errorf("%w (last error: %v)", ErrAllGatewaysDown, lastErr)
}

// shedVerdict reports whether a reply is a gateway admission shed: a
// TRANSIENT system exception, the retry-me signal of the shed-reply
// contract (docs/OPERATIONS.md).
func (c *Client) shedVerdict(rep giop.Reply) bool {
	if rep.Status != giop.ReplySystemException {
		return false
	}
	repoID, _, _, err := giop.DecodeSystemException(rep.Result, rep.ResultOrder)
	return err == nil && repoID == giop.RepoTransient
}
