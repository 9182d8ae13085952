package core_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/core"
	"eternalgw/internal/giop"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
)

// dialRawGateway opens a plain TCP connection to a fresh single-gateway
// domain and returns it with the gateway address.
func dialRawGateway(t *testing.T) (net.Conn, string) {
	t.Helper()
	d := fastDomain(t, "rb", 2)
	deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGateway(1, "")
	if err != nil {
		t.Fatal(err)
	}
	nc, err := orb.DialRaw(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return nc, gw.Addr()
}

func TestGatewaySurvivesGarbageBytes(t *testing.T) {
	nc, addr := dialRawGateway(t)
	// Not a GIOP stream at all.
	if _, err := nc.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The gateway drops this connection but keeps serving others.
	time.Sleep(20 * time.Millisecond)
	conn, err := orb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{}); err != nil {
		t.Fatalf("gateway wedged by garbage: %v", err)
	}
}

func TestGatewaySurvivesTruncatedHeader(t *testing.T) {
	nc, addr := dialRawGateway(t)
	if _, err := nc.Write([]byte("GIOP")); err != nil {
		t.Fatal(err)
	}
	_ = nc.Close() // half a header, then gone
	conn, err := orb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{}); err != nil {
		t.Fatalf("gateway wedged by truncated header: %v", err)
	}
}

func TestGatewaySurvivesMalformedRequestBody(t *testing.T) {
	nc, addr := dialRawGateway(t)
	// Valid header, garbage body that fails Request decoding.
	msg := giop.Message{
		Header: giop.Header{Major: 1, Minor: 0, Order: cdr.BigEndian, Type: giop.MsgRequest},
		Body:   []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3},
	}
	if err := giop.WriteMessage(nc, msg); err != nil {
		t.Fatal(err)
	}
	// The gateway answers with MessageError (or drops the connection);
	// either way it keeps serving.
	time.Sleep(20 * time.Millisecond)
	conn, err := orb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{}); err != nil {
		t.Fatalf("gateway wedged by malformed body: %v", err)
	}
}

func TestGatewaySurvivesDeclaredHugeMessage(t *testing.T) {
	nc, addr := dialRawGateway(t)
	// Header declaring a body near the 16 MiB cap, never delivered.
	hdr := []byte{'G', 'I', 'O', 'P', 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := nc.Write(hdr); err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{}); err != nil {
		t.Fatalf("gateway wedged by oversized declaration: %v", err)
	}
}

func TestORBServerSurvivesGarbage(t *testing.T) {
	s, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	s.Register([]byte("k"), orb.ServantFunc(func(string, *cdr.Reader, *cdr.Writer) error { return nil }))

	nc, err := orb.DialRaw(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = nc.Write([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	_ = nc.Close()

	conn, err := orb.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Call([]byte("k"), "op", nil, orb.InvokeOptions{}); err != nil {
		t.Fatalf("server wedged by garbage: %v", err)
	}
}

func TestGatewayShutdownNotifiesClients(t *testing.T) {
	d := fastDomain(t, "sd", 2)
	deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGateway(1, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := gw.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// The next call must fail promptly (orderly close), not hang until
	// the invocation timeout.
	start := time.Now()
	_, err = conn.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{Timeout: 5 * time.Second})
	if err == nil {
		t.Fatal("call through shut-down gateway succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("close notification not honoured: failed only after %v", elapsed)
	}
}

func TestShutdownDoesNotSplitAFragmentedReply(t *testing.T) {
	// A reply larger than what the loopback socket buffers absorb (about
	// 4 MB) to a GIOP 1.2 client that has stopped reading: the gateway
	// is blocked partway through the fragment run when Shutdown's
	// CloseConnection is due.
	value := make([]byte, 6<<20)
	for i := range value {
		value[i] = byte(i)
	}
	d := fastDomain(t, "sf", 2)
	deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGateway(1, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	conn.SetGIOPMinor(2)
	if _, err := conn.Call([]byte(keyRegister), "append", encodeOctetSeq(value), orb.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}

	raw, err := orb.DialRaw(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	req, err := giop.EncodeRequestV(cdr.BigEndian, 2, giop.Request{
		RequestID:        77,
		ResponseExpected: true,
		ObjectKey:        []byte(keyRegister),
		Operation:        "read",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := giop.WriteMessage(raw, req); err != nil {
		t.Fatal(err)
	}
	// Take the first frame's header, so the run has begun, and stop.
	_ = raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	var first [giop.HeaderSize]byte
	if _, err := io.ReadFull(raw, first[:]); err != nil {
		t.Fatal(err)
	}
	shut := make(chan error, 1)
	go func() { shut <- gw.Shutdown() }()
	time.Sleep(100 * time.Millisecond) // let Shutdown reach the connection

	// What the client then reads is the one whole reply, and after it
	// the close notification or a severed connection — never the close
	// inside the fragment run.
	ra := giop.NewReassembler(io.MultiReader(bytes.NewReader(first[:]), raw), 0)
	msg, err := ra.Next()
	if err != nil {
		t.Fatalf("reading the reply: %v", err)
	}
	if msg.Header.Type != giop.MsgReply {
		t.Fatalf("first complete message is %v, want the reply", msg.Header.Type)
	}
	rep, err := giop.DecodeReply(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cdr.NewReader(rep.Result, rep.ResultOrder).ReadOctetSeq(); rep.RequestID != 77 || !bytes.Equal(got, value) {
		t.Fatalf("reply %d carries %d bytes, want request 77's %d intact", rep.RequestID, len(got), len(value))
	}
	if msg, err := ra.Next(); err == nil && msg.Header.Type != giop.MsgCloseConn {
		t.Fatalf("after the reply came %v, want CloseConnection or a severed connection", msg.Header.Type)
	}
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
}

func TestCancelRequestSuppressesReply(t *testing.T) {
	// CORBA CancelRequest semantics at the gateway: the operation still
	// executes (it is already in the total order), but the client has
	// declared it no longer wants the reply, so none is written.
	d := fastDomain(t, "cx", 2)
	apps := deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGateway(1, "")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := orb.DialRaw(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()

	// A slow operation, then an immediate cancel for it.
	reqMsg, err := giop.EncodeRequest(cdr.BigEndian, giop.Request{
		RequestID:        1,
		ResponseExpected: true,
		ObjectKey:        []byte(keyRegister),
		Operation:        "work",
		Args:             workArgs(100, []byte("w")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := giop.WriteMessage(raw, reqMsg); err != nil {
		t.Fatal(err)
	}
	if err := giop.WriteMessage(raw, giop.EncodeCancelRequest(cdr.BigEndian, giop.CancelRequest{RequestID: 1})); err != nil {
		t.Fatal(err)
	}
	// A second, uncancelled request on the same connection.
	req2, err := giop.EncodeRequest(cdr.BigEndian, giop.Request{
		RequestID:        2,
		ResponseExpected: true,
		ObjectKey:        []byte(keyRegister),
		Operation:        "ops",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := giop.WriteMessage(raw, req2); err != nil {
		t.Fatal(err)
	}
	// The first (and only) reply on the wire must answer request 2.
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := giop.ReadMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := giop.DecodeReply(got)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RequestID != 2 {
		t.Fatalf("reply for request %d arrived; the cancelled reply was not suppressed", rep.RequestID)
	}
	// The cancelled operation still executed.
	waitInt(t, func() int64 { return apps[0].totalOps() }, 1, "cancelled op execution")
}

// rawCall writes one "ops" request with the given id and object key on
// a raw gateway connection and returns the next reply on the wire.
func rawCall(t *testing.T, raw net.Conn, id uint32, key string) giop.Reply {
	t.Helper()
	req, err := giop.EncodeRequest(cdr.BigEndian, giop.Request{
		RequestID:        id,
		ResponseExpected: true,
		ObjectKey:        []byte(key),
		Operation:        "ops",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := giop.WriteMessage(raw, req); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := giop.ReadMessage(raw)
	if err != nil {
		t.Fatalf("no reply to request %d: %v", id, err)
	}
	rep, err := giop.DecodeReply(got)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// waitNoTrackedRequests waits for the gateway to hold no per-connection
// request ids: a request's entry goes just after its reply is written.
func waitNoTrackedRequests(t *testing.T, gw *core.Gateway) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for gw.TrackedRequestIDs() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gateway still tracks %d request ids with nothing in flight", gw.TrackedRequestIDs())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCancelForUnknownIDsLeavesNoState(t *testing.T) {
	// A hostile stream of CancelRequests naming ids that were never
	// sent must not accumulate per-connection state, and must not
	// suppress the reply of a later request that uses one of those ids.
	d := fastDomain(t, "cu", 2)
	deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGateway(1, "")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := orb.DialRaw(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	const cancels = 10000
	for id := uint32(1); id <= cancels; id++ {
		if err := giop.WriteMessage(raw, giop.EncodeCancelRequest(cdr.BigEndian, giop.CancelRequest{RequestID: id})); err != nil {
			t.Fatal(err)
		}
	}
	// The connection is read in order, so this reply proves every
	// cancel above has been processed.
	if rep := rawCall(t, raw, cancels/2, keyRegister); rep.RequestID != cancels/2 || rep.Status != giop.ReplyNoException {
		t.Fatalf("reply %+v, want a normal reply for request %d", rep, cancels/2)
	}
	waitNoTrackedRequests(t, gw)
}

func TestCancelAfterReplyDoesNotSuppressReusedID(t *testing.T) {
	// One reply per request: a cancel that arrives after its request
	// was answered is stale and must not eat the reply of a later
	// request reusing the id.
	d := fastDomain(t, "cr", 2)
	deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGateway(1, "")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := orb.DialRaw(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	// The first use of id 1 is refused at the edge (unknown object key),
	// so nothing about it is recorded and the reuse below is a fresh
	// operation, not a reissue the gateway record could answer.
	if rep := rawCall(t, raw, 1, "no/such/object"); rep.RequestID != 1 || rep.Status != giop.ReplySystemException {
		t.Fatalf("reply %+v, want a system exception for request 1", rep)
	}
	if err := giop.WriteMessage(raw, giop.EncodeCancelRequest(cdr.BigEndian, giop.CancelRequest{RequestID: 1})); err != nil {
		t.Fatal(err)
	}
	if rep := rawCall(t, raw, 1, keyRegister); rep.RequestID != 1 || rep.Status != giop.ReplyNoException {
		t.Fatalf("reply %+v, want a normal reply for the reused id 1", rep)
	}
	waitNoTrackedRequests(t, gw)
}

// workArgs builds the RegisterApp "work" arguments.
func workArgs(ms uint32, data []byte) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteULong(ms)
	w.WriteOctetSeq(data)
	return w.Bytes()
}
