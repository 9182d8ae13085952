package orb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
)

// counterServant is a deterministic test servant with add/get/fail ops.
type counterServant struct {
	mu    sync.Mutex
	total int64
}

func (c *counterServant) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	switch op {
	case "add":
		delta := args.ReadLongLong()
		if err := args.Err(); err != nil {
			return err
		}
		c.mu.Lock()
		c.total += delta
		total := c.total
		c.mu.Unlock()
		reply.WriteLongLong(total)
		return nil
	case "get":
		c.mu.Lock()
		total := c.total
		c.mu.Unlock()
		reply.WriteLongLong(total)
		return nil
	case "fail":
		return &SystemException{RepoID: RepoUnknown, Minor: 42}
	case "boom":
		return errors.New("internal explosion")
	default:
		return &SystemException{RepoID: RepoObjectNotExist, Minor: 2}
	}
}

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	s.Register([]byte("counter"), &counterServant{})
	return s
}

func dialServer(t *testing.T, s *Server) *Conn {
	t.Helper()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func encodeDelta(v int64) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteLongLong(v)
	return w.Bytes()
}

func TestInvokeRoundTrip(t *testing.T) {
	s := newTestServer(t)
	c := dialServer(t, s)

	r, err := c.Call([]byte("counter"), "add", encodeDelta(5), InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 5 || r.Err() != nil {
		t.Fatalf("add = %d, err %v", got, r.Err())
	}
	r, err = c.Call([]byte("counter"), "add", encodeDelta(-2), InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 3 {
		t.Fatalf("total = %d", got)
	}
}

func TestConcurrentInvocationsMultiplex(t *testing.T) {
	s := newTestServer(t)
	c := dialServer(t, s)

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call([]byte("counter"), "add", encodeDelta(1), InvokeOptions{}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	r, err := c.Call([]byte("counter"), "get", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 32 {
		t.Fatalf("total = %d, want 32", got)
	}
}

func TestUnknownObjectKeyRaisesObjectNotExist(t *testing.T) {
	s := newTestServer(t)
	c := dialServer(t, s)

	_, err := c.Call([]byte("ghost"), "get", nil, InvokeOptions{})
	var sysEx *SystemException
	if !errors.As(err, &sysEx) || sysEx.RepoID != RepoObjectNotExist {
		t.Fatalf("err = %v, want OBJECT_NOT_EXIST", err)
	}
}

func TestServantErrorsMapToSystemExceptions(t *testing.T) {
	s := newTestServer(t)
	c := dialServer(t, s)

	_, err := c.Call([]byte("counter"), "fail", nil, InvokeOptions{})
	var sysEx *SystemException
	if !errors.As(err, &sysEx) || sysEx.Minor != 42 {
		t.Fatalf("err = %v, want minor 42", err)
	}

	_, err = c.Call([]byte("counter"), "boom", nil, InvokeOptions{})
	if !errors.As(err, &sysEx) || sysEx.RepoID != RepoUnknown {
		t.Fatalf("err = %v, want UNKNOWN", err)
	}
}

func TestOneWayInvocation(t *testing.T) {
	s := newTestServer(t)
	c := dialServer(t, s)

	if _, err := c.Invoke([]byte("counter"), "add", encodeDelta(7), InvokeOptions{OneWay: true}); err != nil {
		t.Fatal(err)
	}
	// The one-way must eventually apply; poll via a two-way get.
	deadline := time.Now().Add(2 * time.Second)
	for {
		r, err := c.Call([]byte("counter"), "get", nil, InvokeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if r.ReadLongLong() == 7 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("one-way add never applied")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerIORPointsAtListenAddress(t *testing.T) {
	s := newTestServer(t)
	ref := s.IOR("IDL:Test/Counter:1.0", []byte("counter"))
	p, err := ref.PrimaryProfile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr() != s.Addr() {
		t.Fatalf("IOR addr = %s, server addr = %s", p.Addr(), s.Addr())
	}
	if string(p.ObjectKey) != "counter" {
		t.Fatalf("object key = %q", p.ObjectKey)
	}
}

type fixedAdvertiser struct {
	host string
	port uint16
}

func (a fixedAdvertiser) AdvertisedAddr(string, uint16) (string, uint16) { return a.host, a.port }

func TestAdvertiserRedirectsIOR(t *testing.T) {
	// Section 3.1: the interceptor substitutes the gateway address when
	// the server publishes its IOR.
	s, err := NewServer("127.0.0.1:0", WithAdvertiser(fixedAdvertiser{host: "gw.example", port: 9999}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	ref := s.IOR("IDL:Test/Counter:1.0", []byte("counter"))
	p, err := ref.PrimaryProfile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Host != "gw.example" || p.Port != 9999 {
		t.Fatalf("profile = %+v", p)
	}
}

func TestResolveViaIOR(t *testing.T) {
	s := newTestServer(t)
	ref := s.IOR("IDL:Test/Counter:1.0", []byte("counter"))
	obj, conn, err := Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	r, err := obj.Call("add", encodeDelta(11), InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 11 {
		t.Fatalf("got %d", got)
	}
}

func TestInvokeAfterServerClose(t *testing.T) {
	s := newTestServer(t)
	c := dialServer(t, s)
	if _, err := c.Call([]byte("counter"), "get", nil, InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()
	_, err := c.Call([]byte("counter"), "get", nil, InvokeOptions{Timeout: time.Second})
	if err == nil {
		t.Fatal("expected error after server close")
	}
}

func TestInvokeTimeout(t *testing.T) {
	// A servant that blocks forever must trigger the client timeout.
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	defer close(block)
	t.Cleanup(func() { _ = s.Close() })
	s.Register([]byte("slow"), ServantFunc(func(string, *cdr.Reader, *cdr.Writer) error {
		<-block
		return nil
	}))
	c := dialServer(t, s)
	_, err = c.Call([]byte("slow"), "wait", nil, InvokeOptions{Timeout: 50 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestLocateRequest(t *testing.T) {
	s := newTestServer(t)
	// Use a raw connection to exercise LocateRequest directly.
	c := dialServer(t, s)
	msg := giop.EncodeLocateRequest(cdr.BigEndian, giop.LocateRequest{RequestID: 9, ObjectKey: []byte("counter")})
	c.wmu.Lock()
	err := giop.WriteMessage(c.nc, msg)
	c.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// The client readLoop drops LocateReply silently; just verify the
	// connection stays healthy afterwards.
	if _, err := c.Call([]byte("counter"), "get", nil, InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestIDReuseIsHonoured(t *testing.T) {
	s := newTestServer(t)
	c := dialServer(t, s)
	rep, err := c.Invoke([]byte("counter"), "get", nil, InvokeOptions{RequestID: 777})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RequestID != 777 {
		t.Fatalf("reply request id = %d", rep.RequestID)
	}
}

func TestManySequentialCalls(t *testing.T) {
	s := newTestServer(t)
	c := dialServer(t, s)
	for i := 1; i <= 200; i++ {
		r, err := c.Call([]byte("counter"), "add", encodeDelta(1), InvokeOptions{})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := r.ReadLongLong(); got != int64(i) {
			t.Fatalf("call %d returned %d", i, got)
		}
	}
}

func TestMultipleClients(t *testing.T) {
	s := newTestServer(t)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = c.Close() }()
			for j := 0; j < 20; j++ {
				if _, err := c.Call([]byte("counter"), "add", encodeDelta(1), InvokeOptions{}); err != nil {
					errs <- fmt.Errorf("client %d call %d: %w", n, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c := dialServer(t, s)
	r, err := c.Call([]byte("counter"), "get", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != clients*20 {
		t.Fatalf("total = %d, want %d", got, clients*20)
	}
}

// waitTotal polls the counter until it reaches want.
func waitTotal(t *testing.T, c *Conn, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		r, err := c.Call([]byte("counter"), "get", nil, InvokeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.ReadLongLong(); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter never reached %d", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConcurrentDispatchInterleaves(t *testing.T) {
	// A multithreaded ORB (concurrent dispatch) serves a slow request
	// without stalling later requests on the same connection — and is
	// exactly the nondeterminism source the domain executor serializes
	// away (paper section 2.2).
	s, err := NewServer("127.0.0.1:0", WithConcurrentDispatch())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	release := make(chan struct{})
	s.Register([]byte("slow"), ServantFunc(func(op string, _ *cdr.Reader, reply *cdr.Writer) error {
		if op == "wait" {
			<-release
		}
		reply.WriteLongLong(1)
		return nil
	}))
	c := dialServer(t, s)

	done := make(chan error, 1)
	go func() {
		_, err := c.Call([]byte("slow"), "wait", nil, InvokeOptions{Timeout: 5 * time.Second})
		done <- err
	}()
	// The fast request on the same connection completes while the slow
	// one is still parked.
	if _, err := c.Call([]byte("slow"), "fast", nil, InvokeOptions{Timeout: 2 * time.Second}); err != nil {
		t.Fatalf("fast call stalled behind slow call: %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestLocateAPI(t *testing.T) {
	s := newTestServer(t)
	c := dialServer(t, s)
	status, err := c.Locate([]byte("counter"), time.Second)
	if err != nil || status != giop.LocateObjectHere {
		t.Fatalf("locate counter = %v, %v", status, err)
	}
	status, err = c.Locate([]byte("ghost"), time.Second)
	if err != nil || status != giop.LocateUnknownObject {
		t.Fatalf("locate ghost = %v, %v", status, err)
	}
}

// TestLateReplyNeverFeedsTheNextInvoke: a call that timed out gives its
// reply channel back for the next call to reuse, and the reply that comes
// after the timeout reaches nobody. End to end, a servant answers each
// timed-out call just before the next call is made; then the window
// itself, where the read loop hands the reply over after the caller's
// timer fired and before the caller abandoned its channel.
func TestLateReplyNeverFeedsTheNextInvoke(t *testing.T) {
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	release := make(chan struct{})
	s.Register([]byte("late"), ServantFunc(func(op string, _ *cdr.Reader, reply *cdr.Writer) error {
		if op == "slow" {
			<-release
		}
		reply.WriteString(op)
		return nil
	}))
	c := dialServer(t, s)
	for i := 0; i < 20; i++ {
		if _, err := c.Call([]byte("late"), "slow", nil, InvokeOptions{Timeout: 5 * time.Millisecond}); !errors.Is(err, ErrTimeout) {
			t.Fatalf("round %d: slow call returned %v, want ErrTimeout", i, err)
		}
		release <- struct{}{} // answered now, after its caller gave up
		r, err := c.Call([]byte("late"), "fast", nil, InvokeOptions{})
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if got := r.ReadString(); got != "fast" {
			t.Fatalf("round %d: the next call was handed %q, the timed-out call's reply", i, got)
		}
	}

	const id = 1 << 30
	for reused, i := false, 0; !reused; i++ {
		if i == 1000 {
			t.Fatal("an abandoned reply channel was never reused")
		}
		ch := acquireReplyChan()
		c.mu.Lock()
		c.pending[id] = ch
		c.mu.Unlock()
		c.deliver(giop.Reply{RequestID: id, Result: []byte("late")}) // the timer has fired
		c.abandon(id, ch)
		next := acquireReplyChan()
		reused = next == ch
		select {
		case rep := <-next:
			t.Fatalf("a reused reply channel holds %q, a reply to the call that gave it back", rep.Result)
		default:
		}
		replyChans.Put(next)
	}
}

// TestServantFailureLeavesTheNextInvocationClean: the reader and writer
// InvokeServant hands a servant are the caller's, reset for every request.
// A servant that fails mid-read — the reader's error is sticky — or
// mid-write leaves the next invocation a reader at position 0 without an
// error and a writer holding nothing behind the reply's head.
func TestServantFailureLeavesTheNextInvocationClean(t *testing.T) {
	args, reply := new(cdr.Reader), new(cdr.Writer)
	var dirty error
	sv := ServantFunc(func(op string, args *cdr.Reader, reply *cdr.Writer) error {
		switch op {
		case "midread":
			args.ReadULongLong()
			args.ReadULongLong() // past the end
			return args.Err()
		case "midwrite":
			reply.WriteString("half a result")
			return errors.New("failed while writing")
		}
		switch {
		case args.Pos() != 0 || args.Err() != nil || args.Remaining() != 8:
			dirty = fmt.Errorf("reader at %d, err %v, %d bytes left", args.Pos(), args.Err(), args.Remaining())
		case reply.Len() != 4 || reply.Err() != nil:
			dirty = fmt.Errorf("writer holds %d bytes, err %v", reply.Len(), reply.Err())
		}
		reply.WriteLongLong(args.ReadLongLong())
		return dirty
	})
	req := giop.Request{Args: encodeDelta(9), ArgsOrder: cdr.BigEndian}
	for _, failing := range []string{"midread", "midwrite", "midread", "midread", "midwrite", "midwrite"} {
		req.Operation = failing
		if _, status := InvokeServant(sv, req, []byte("head"), args, reply); status != giop.ReplySystemException {
			t.Fatalf("%s: status %v, want a system exception", failing, status)
		}
		req.Operation = "check"
		out, status := InvokeServant(sv, req, []byte("head"), args, reply)
		if status != giop.ReplyNoException {
			t.Fatalf("after %s: status %v: %v", failing, status, dirty)
		}
		if r := cdr.NewReader(out[4:], cdr.BigEndian); string(out[:4]) != "head" || r.ReadLongLong() != 9 {
			t.Fatalf("after %s: reply %x", failing, out)
		}
		if args.Remaining() != 0 || reply.Len() != 0 {
			t.Fatalf("after %s: InvokeServant left the reader %d bytes, the writer %d", failing, args.Remaining(), reply.Len())
		}
	}
}
