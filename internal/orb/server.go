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

func (s *Server) handleRequest(conn net.Conn, wmu *sync.Mutex, msg giop.Message) {
	req, err := giop.DecodeRequest(msg)
	if err != nil {
		wmu.Lock()
		_ = giop.WriteMessage(conn, giop.EncodeMessageError(msg.Header.Order))
		wmu.Unlock()
		return
	}
	rep := DispatchRequest(s, req)
	if !req.ResponseExpected {
		return
	}
	out, err := giop.EncodeReplyV(msg.Header.Order, msg.Header.Minor, rep)
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

// DispatchRequest runs one decoded request against the server's object
// adapter and produces the reply. It is exported so the replication
// mechanisms can feed totally-ordered requests through the same dispatch
// path that direct IIOP connections use.
func DispatchRequest(s *Server, req giop.Request) giop.Reply {
	sv, ok := s.lookup(req.ObjectKey)
	if !ok {
		return giop.Reply{
			RequestID: req.RequestID,
			Status:    giop.ReplySystemException,
			Result:    giop.SystemExceptionBody(req.ArgsOrder, RepoObjectNotExist, minorNoSuchObject, giop.CompletedNo),
		}
	}
	return InvokeServant(sv, req)
}

// InvokeServant runs one request against a servant, mapping servant
// errors to system exceptions.
func InvokeServant(sv Servant, req giop.Request) giop.Reply {
	args := cdr.NewReader(req.Args, req.ArgsOrder)
	reply := cdr.NewWriter(req.ArgsOrder)
	if err := sv.Invoke(req.Operation, args, reply); err != nil {
		var sysEx *SystemException
		repoID, minor := RepoUnknown, uint32(0)
		if errors.As(err, &sysEx) {
			repoID, minor = sysEx.RepoID, sysEx.Minor
		}
		return giop.Reply{
			RequestID:   req.RequestID,
			Status:      giop.ReplySystemException,
			Result:      giop.SystemExceptionBody(req.ArgsOrder, repoID, minor, giop.CompletedYes),
			ResultOrder: req.ArgsOrder,
		}
	}
	return giop.Reply{
		RequestID:   req.RequestID,
		Status:      giop.ReplyNoException,
		Result:      reply.Bytes(),
		ResultOrder: req.ArgsOrder,
	}
}
