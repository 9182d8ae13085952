package orb

import (
	"errors"
	"net"
	"strconv"
	"sync"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/ior"
)

// Advertiser decides the host and port that published IORs carry. The
// default advertises the server's own listen address. Eternal's
// interceptor substitutes the gateway's address here, exactly as the
// paper's getsockname()/sysinfo() interpositioning does (section 3.1), so
// IORs published by replicated servers point external clients at the
// gateway.
type Advertiser interface {
	AdvertisedAddr(actualHost string, actualPort uint16) (host string, port uint16)
}

// selfAdvertiser advertises the real listen address.
type selfAdvertiser struct{}

func (selfAdvertiser) AdvertisedAddr(h string, p uint16) (string, uint16) { return h, p }

// ServerOption configures a Server.
type ServerOption interface{ apply(*Server) }

type serverOptionFunc func(*Server)

func (f serverOptionFunc) apply(s *Server) { f(s) }

// WithAdvertiser installs an IOR address advertiser (the interceptor
// hook).
func WithAdvertiser(a Advertiser) ServerOption {
	return serverOptionFunc(func(s *Server) { s.advertiser = a })
}

// WithConcurrentDispatch makes the server execute each request on its
// own goroutine, as commercial multithreaded ORBs do. The paper's
// section 2.2 identifies exactly this multithreading as a significant
// source of nondeterminism for replicated objects: inside a fault
// tolerance domain, Eternal's interceptor-level mechanisms serialize
// dispatch (in this repository, the replication executor applies the
// totally-ordered invocation stream one operation at a time), so
// concurrent dispatch is only safe for unreplicated servants.
func WithConcurrentDispatch() ServerOption {
	return serverOptionFunc(func(s *Server) { s.concurrent = true })
}

// Server is an IIOP server: a TCP listener plus an object adapter mapping
// object keys to servants.
type Server struct {
	ln         net.Listener
	advertiser Advertiser
	concurrent bool

	mu       sync.Mutex
	servants map[string]Servant
	conns    map[net.Conn]struct{}
	closed   bool

	wg sync.WaitGroup
}

// NewServer starts an IIOP server listening on addr (e.g.
// "127.0.0.1:0").
func NewServer(addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:         ln,
		advertiser: selfAdvertiser{},
		servants:   make(map[string]Servant),
		conns:      make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o.apply(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's actual listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Register binds a servant to an object key.
func (s *Server) Register(objectKey []byte, sv Servant) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.servants[string(objectKey)] = sv
}

// lookup returns the servant for an object key.
func (s *Server) lookup(objectKey []byte) (Servant, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv, ok := s.servants[string(objectKey)]
	return sv, ok
}

// IOR builds the object reference a client would use to reach objectKey,
// with the addressing information supplied by the advertiser.
func (s *Server) IOR(typeID string, objectKey []byte) ior.Ref {
	host, portStr, err := net.SplitHostPort(s.Addr())
	if err != nil {
		host, portStr = "127.0.0.1", "0"
	}
	p, _ := strconv.Atoi(portStr)
	advHost, advPort := s.advertiser.AdvertisedAddr(host, uint16(p))
	return ior.New(typeID, ior.IIOPProfile{Host: advHost, Port: advPort, ObjectKey: objectKey})
}

// Close stops the listener and all connections, and waits for the
// connection handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	err := s.ln.Close()
	for _, c := range conns {
		// Orderly GIOP shutdown: tell the peer before severing, so its
		// in-flight bookkeeping can distinguish closure from a crash.
		_ = giop.WriteMessage(c, giop.EncodeCloseConnection(cdr.BigEndian))
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()

		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var wmu sync.Mutex // serializes replies onto the connection
	ra := giop.NewReassembler(conn, 0)
	for {
		msg, err := ra.Next()
		if err != nil {
			return
		}
		switch msg.Header.Type {
		case giop.MsgRequest:
			if s.concurrent {
				s.wg.Add(1)
				go func(msg giop.Message) {
					defer s.wg.Done()
					s.handleRequest(conn, &wmu, msg)
				}(msg)
			} else {
				s.handleRequest(conn, &wmu, msg)
			}
		case giop.MsgLocateRequest:
			s.handleLocate(conn, &wmu, msg)
		case giop.MsgCancelRequest:
			// Nothing cancellable: requests are served synchronously.
		case giop.MsgCloseConn:
			return
		default:
			wmu.Lock()
			_ = giop.WriteMessage(conn, giop.EncodeMessageError(msg.Header.Order))
			wmu.Unlock()
		}
	}
}

// handleRequest runs one request against the object adapter. The reply
// is built in one buffer: opened in the request's byte order and version,
// the servant's result written behind its head, sealed with the outcome.
func (s *Server) handleRequest(conn net.Conn, wmu *sync.Mutex, msg giop.Message) {
	req, err := giop.DecodeRequest(msg)
	if err != nil {
		wmu.Lock()
		_ = giop.WriteMessage(conn, giop.EncodeMessageError(msg.Header.Order))
		wmu.Unlock()
		return
	}
	order, minor := msg.Header.Order, msg.Header.Minor
	rep := giop.Reply{RequestID: req.RequestID}
	buf, err := giop.OpenReply(make([]byte, 0, replyStart), order, minor, rep)
	if err != nil {
		return
	}
	if sv, ok := s.lookup(req.ObjectKey); ok {
		buf, rep.Status = InvokeServant(sv, req, buf)
	} else {
		rep.Status = giop.ReplySystemException
		buf = append(buf, giop.SystemExceptionBody(order, RepoObjectNotExist, minorNoSuchObject, giop.CompletedNo)...)
	}
	if !req.ResponseExpected {
		return
	}
	if buf, err = giop.SealReply(buf, 0, order, minor, rep); err != nil {
		return
	}
	out, err := giop.Unmarshal(buf)
	if err != nil {
		return
	}
	wmu.Lock()
	defer wmu.Unlock()
	_ = giop.WriteMessageFragmented(conn, out, 0) // a failed write surfaces as the read loop's error
}

func (s *Server) handleLocate(conn net.Conn, wmu *sync.Mutex, msg giop.Message) {
	lr, err := giop.DecodeLocateRequest(msg)
	if err != nil {
		return
	}
	status := giop.LocateUnknownObject
	if _, ok := s.lookup(lr.ObjectKey); ok {
		status = giop.LocateObjectHere
	}
	wmu.Lock()
	defer wmu.Unlock()
	_ = giop.WriteMessage(conn, giop.EncodeLocateReply(msg.Header.Order, giop.LocateReply{
		RequestID: lr.RequestID,
		Status:    status,
	}))
}

// replyStart is the capacity a reply's buffer is opened with: its head and
// a result of a value or two, before append has to grow it.
const replyStart = 128

// InvokeServant runs one request against a servant, which writes its
// result through a writer on head — the reply as far as it is built
// (giop.OpenReply), so that the result lies where it is sent from — and
// returns the buffer with the result behind head, and the reply's status.
// A servant error is mapped to a system exception, written where the
// result began: what the servant had written is given up.
func InvokeServant(sv Servant, req giop.Request, head []byte) ([]byte, giop.ReplyStatus) {
	reply := cdr.NewWriterOn(head, req.ArgsOrder)
	err := sv.Invoke(req.Operation, cdr.NewReader(req.Args, req.ArgsOrder), reply)
	if err == nil {
		return reply.Bytes(), giop.ReplyNoException
	}
	var sysEx *SystemException
	repoID, minor := RepoUnknown, uint32(0)
	if errors.As(err, &sysEx) {
		repoID, minor = sysEx.RepoID, sysEx.Minor
	}
	return append(head, giop.SystemExceptionBody(req.ArgsOrder, repoID, minor, giop.CompletedYes)...), giop.ReplySystemException
}
