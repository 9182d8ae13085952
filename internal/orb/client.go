package orb

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/ior"
)

// Conn is a client-side IIOP connection. It multiplexes concurrent
// invocations over one TCP connection, matching replies to requests by
// request id. Conn is safe for concurrent use.
type Conn struct {
	nc    net.Conn
	order cdr.ByteOrder
	minor atomic.Uint32 // GIOP minor version for outgoing requests

	wmu sync.Mutex // serializes writes
	// The gathered request write's scratch, under wmu: the request's head,
	// the write's two buffers, and the slice of them WriteTo consumes.
	whead []byte
	wvec  [2][]byte
	wbufs net.Buffers

	mu       sync.Mutex
	nextID   uint32
	pending  map[uint32]chan giop.Reply
	locating map[uint32]chan giop.LocateReply
	err      error
	closed   bool

	done chan struct{}
}

// DialTimeout connects to an IIOP endpoint with a connect timeout.
func DialTimeout(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return newConn(nc), nil
}

// Dial connects to an IIOP endpoint.
func Dial(addr string) (*Conn, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialRaw opens a plain TCP connection to an IIOP endpoint without the
// request/reply machinery, for callers that exchange GIOP messages
// directly (interoperability tests, protocol tooling).
func DialRaw(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 10*time.Second)
}

func newConn(nc net.Conn) *Conn {
	c := &Conn{
		nc:       nc,
		order:    cdr.BigEndian,
		nextID:   1,
		pending:  make(map[uint32]chan giop.Reply),
		locating: make(map[uint32]chan giop.LocateReply),
		done:     make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// SetGIOPMinor selects the GIOP minor version (0, 1 or 2) for requests
// sent after the call. Replies are decoded by whatever version the peer
// answers with.
func (c *Conn) SetGIOPMinor(minor byte) {
	c.minor.Store(uint32(minor))
}

// Close shuts the connection down; in-flight invocations fail with
// ErrClosed.
func (c *Conn) Close() error {
	c.fail(ErrClosed)
	return c.nc.Close()
}

// fail marks the connection broken and wakes all waiters (c.done).
func (c *Conn) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.err = err
	close(c.done)
}

func (c *Conn) readLoop() {
	ra := giop.NewReassembler(c.nc, 0)
	for {
		msg, err := ra.Next()
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		switch msg.Header.Type {
		case giop.MsgReply:
			rep, err := giop.DecodeReply(msg)
			if err != nil {
				continue
			}
			c.deliver(rep)
		case giop.MsgLocateReply:
			lr, err := giop.DecodeLocateReply(msg)
			if err != nil {
				continue
			}
			c.mu.Lock()
			ch, ok := c.locating[lr.RequestID]
			if ok {
				delete(c.locating, lr.RequestID)
			}
			c.mu.Unlock()
			if ok {
				ch <- lr
			}
		case giop.MsgCloseConn:
			c.fail(ErrClosed)
			return
		default:
			// Unsolicited message types are ignored by this client.
		}
	}
}

// deliver hands a reply to the call awaiting its request id, if one is.
// It sends under mu, so that nothing reaches a channel once its call has
// abandoned it (Invoke reuses channels), and never blocks: one reply per
// registration, into a channel emptied before.
func (c *Conn) deliver(rep giop.Reply) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ch, ok := c.pending[rep.RequestID]; ok {
		delete(c.pending, rep.RequestID)
		ch <- rep
	}
}

// InvokeOptions customizes a single invocation.
type InvokeOptions struct {
	// ServiceContexts are attached to the request; the enhanced client
	// interception layer uses this to carry its unique client id.
	ServiceContexts []giop.ServiceContext
	// OneWay suppresses the response (response_expected = false).
	OneWay bool
	// Timeout bounds the wait for the reply; zero means 10 seconds.
	Timeout time.Duration
	// RequestID forces a specific request id; zero allocates the next
	// one. The enhanced client layer reuses ids when reissuing pending
	// invocations after gateway failover so duplicates are detectable.
	RequestID uint32
}

// Invoke performs one IIOP request/reply exchange. args must be
// CDR-encoded in big-endian order (use cdr.NewWriter(cdr.BigEndian)).
func (c *Conn) Invoke(objectKey []byte, op string, args []byte, opts InvokeOptions) (giop.Reply, error) {
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}

	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return giop.Reply{}, err
	}
	id := opts.RequestID
	if id == 0 {
		id = c.nextID
		c.nextID++
	}
	var ch chan giop.Reply
	if !opts.OneWay {
		ch = acquireReplyChan()
		c.pending[id] = ch
		defer c.abandon(id, ch)
	}
	c.mu.Unlock()

	err := c.writeRequest(byte(c.minor.Load()), giop.Request{
		ServiceContexts:  opts.ServiceContexts,
		RequestID:        id,
		ResponseExpected: !opts.OneWay,
		ObjectKey:        objectKey,
		Operation:        op,
	}, args)
	if err != nil {
		return giop.Reply{}, err
	}
	if opts.OneWay {
		return giop.Reply{}, nil
	}

	timer := AcquireTimer(timeout)
	defer ReleaseTimer(timer)
	select {
	case rep := <-ch:
		return rep, nil
	case <-c.done:
		// A reply read before the connection failed is still this call's.
		select {
		case rep := <-ch:
			return rep, nil
		default:
		}
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return giop.Reply{}, err
	case <-timer.C:
		return giop.Reply{}, fmt.Errorf("%w: %s after %v", ErrTimeout, op, timeout)
	}
}

// replyChans holds reply channels with nothing in them: an invocation
// takes one and gives it back, as it does its timer.
var replyChans sync.Pool

func acquireReplyChan() chan giop.Reply {
	if ch, ok := replyChans.Get().(chan giop.Reply); ok {
		return ch
	}
	return make(chan giop.Reply, 1)
}

// writeRequest frames a request and writes it to the socket: the head
// built in the connection's scratch and the arguments from where the
// caller has them, in one gathered write. A request that has to be
// fragmented is encoded whole, so each frame is one Write. (args comes
// beside req so that only it, and not the caller's object key and service
// contexts, is seen to reach the connection's scratch.)
func (c *Conn) writeRequest(minor byte, req giop.Request, args []byte) error {
	req.Args = args
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var err error
	if minor >= 1 && giop.RequestSizeBound(req) > giop.DefaultFragmentSize {
		var msg giop.Message
		if msg, err = giop.EncodeRequestV(c.order, minor, req); err != nil {
			return err
		}
		err = giop.WriteMessageFragmented(c.nc, msg, 0)
	} else {
		if c.whead, err = giop.AppendRequestHead(c.whead[:0], c.order, minor, req); err != nil {
			return err
		}
		c.wbufs = append(c.wvec[:0], c.whead, args)
		_, err = c.wbufs.WriteTo(c.nc)
		c.wvec[1] = nil // the arguments are the caller's, not this connection's to hold
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return nil
}

// abandon forgets a pending request, answered or not, and gives its
// channel back: emptied, so that a reply which crossed the call's
// timeout never reaches the next call that takes the channel.
func (c *Conn) abandon(id uint32, ch chan giop.Reply) {
	c.mu.Lock()
	if c.pending[id] == ch {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	select {
	case <-ch:
	default:
	}
	replyChans.Put(ch)
}

// Call invokes op and surfaces CORBA exceptions as errors, returning a
// reader over the reply body on success.
func (c *Conn) Call(objectKey []byte, op string, args []byte, opts InvokeOptions) (*cdr.Reader, error) {
	rep, err := c.Invoke(objectKey, op, args, opts)
	if err != nil {
		return nil, err
	}
	return ReplyReader(rep)
}

// ReplyReader converts a decoded reply into a result reader, mapping
// exception statuses to errors.
func ReplyReader(rep giop.Reply) (*cdr.Reader, error) {
	switch rep.Status {
	case giop.ReplyNoException:
		return cdr.NewReader(rep.Result, rep.ResultOrder), nil
	case giop.ReplySystemException:
		repoID, minor, completed, err := giop.DecodeSystemException(rep.Result, rep.ResultOrder)
		if err != nil {
			return nil, err
		}
		return nil, &SystemException{RepoID: repoID, Minor: minor, Completed: completed}
	default:
		return nil, fmt.Errorf("orb: unsupported reply status %v", rep.Status)
	}
}

// ObjectRef is a client-side proxy bound to one profile of an IOR.
type ObjectRef struct {
	conn *Conn
	key  []byte
}

// Resolve connects to the first IIOP profile of ref and returns a proxy
// plus the connection (which the caller owns and must close).
func Resolve(ref ior.Ref) (*ObjectRef, *Conn, error) {
	p, err := ref.PrimaryProfile()
	if err != nil {
		return nil, nil, err
	}
	conn, err := Dial(p.Addr())
	if err != nil {
		return nil, nil, err
	}
	return &ObjectRef{conn: conn, key: p.ObjectKey}, conn, nil
}

// Call invokes op on the referenced object.
func (o *ObjectRef) Call(op string, args []byte, opts InvokeOptions) (*cdr.Reader, error) {
	return o.conn.Call(o.key, op, args, opts)
}

// Locate asks the peer whether it serves objectKey (a GIOP
// LocateRequest). Gateways answer OBJECT_HERE for every object of their
// domain, upholding the illusion that they are the server (paper
// section 3.1).
func (c *Conn) Locate(objectKey []byte, timeout time.Duration) (giop.LocateStatus, error) {
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return 0, err
	}
	id := c.nextID
	c.nextID++
	ch := make(chan giop.LocateReply, 1)
	c.locating[id] = ch
	c.mu.Unlock()

	msg := giop.EncodeLocateRequest(c.order, giop.LocateRequest{RequestID: id, ObjectKey: objectKey})
	c.wmu.Lock()
	err := giop.WriteMessage(c.nc, msg)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.locating, id)
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	timer := AcquireTimer(timeout)
	defer ReleaseTimer(timer)
	select {
	case lr := <-ch:
		return lr.Status, nil
	case <-c.done:
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return 0, err
	case <-timer.C:
		c.mu.Lock()
		delete(c.locating, id)
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: locate after %v", ErrTimeout, timeout)
	}
}
