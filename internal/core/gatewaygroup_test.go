package core_test

import (
	"bytes"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
)

// enhancedContext builds the section 3.5 service context.
func enhancedContext(id string) []giop.ServiceContext {
	return []giop.ServiceContext{{ID: giop.FTClientContextID, Data: []byte(id)}}
}

func waitCount(t *testing.T, what string, get func() int, want int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for get() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", what, get(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestGatewayGroupRecordsRequestsAndResponses(t *testing.T) {
	// Section 3.5: every gateway in the group keeps a record of the
	// requests and responses flowing through any of them.
	d := fastDomain(t, "ny", 4)
	deployRegister(t, d, replication.Active, 2)
	gw1, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	gw2, err := d.AddGateway(3, "")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := orb.Dial(gw1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte("x")), orb.InvokeOptions{ServiceContexts: enhancedContext("rec-client")}); err != nil {
		t.Fatal(err)
	}
	// gw2 never saw the TCP connection, yet it has the record.
	waitCount(t, "gw2 recorded replies", gw2.RecordedReplies, 1)
}

func TestReissueAnsweredFromGatewayGroupRecord(t *testing.T) {
	// After the connected gateway dies, the next gateway answers the
	// client's reissued invocation from its record of the response —
	// without touching the servers.
	d := fastDomain(t, "ny", 4)
	apps := deployRegister(t, d, replication.Active, 2)
	gw1, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	gw2, err := d.AddGateway(3, "")
	if err != nil {
		t.Fatal(err)
	}
	sc := enhancedContext("cache-client")

	conn, err := orb.Dial(gw1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	r, err := conn.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte("x")), orb.InvokeOptions{RequestID: 9, ServiceContexts: sc})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 1 {
		t.Fatalf("append = %d", got)
	}
	// Wait until gw2's record holds the response, then fail over.
	waitCount(t, "gw2 recorded replies", gw2.RecordedReplies, 1)
	_ = gw1.Close()

	conn2, err := orb.Dial(gw2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn2.Close() }()
	r, err = conn2.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte("x")), orb.InvokeOptions{RequestID: 9, ServiceContexts: sc})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 1 {
		t.Fatalf("reissue returned %d, want the recorded result 1", got)
	}
	st := gw2.Stats()
	if st.AnsweredFromCache != 1 {
		t.Fatalf("answered-from-cache = %d, want 1 (stats %+v)", st.AnsweredFromCache, st)
	}
	if st.RequestsForwarded != 0 {
		t.Fatalf("gw2 forwarded %d requests; the record should have answered", st.RequestsForwarded)
	}
	// Each replica executes the append once. The client's answer came from
	// the first to respond, so the other may still be executing it.
	for _, app := range apps {
		waitCount(t, "server ops", func() int { return int(app.totalOps()) }, 1)
		if got := app.totalOps(); got != 1 {
			t.Fatalf("server executed %d ops, want 1", got)
		}
	}
}

func TestClientDepartureCleansGatewayState(t *testing.T) {
	// Section 3.5: when a client fails (its connection ends), the
	// gateways inform each other and delete the state stored on the
	// client's behalf. Applies to counter-identified (plain) clients.
	d := fastDomain(t, "ny", 4)
	deployRegister(t, d, replication.Active, 1)
	gw1, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	gw2, err := d.AddGateway(3, "")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := orb.Dial(gw1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte("x")), orb.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, "gw2 recorded replies", gw2.RecordedReplies, 1)

	// The client departs; both gateways drop its records.
	_ = conn.Close()
	waitCount(t, "gw1 departures", func() int { return int(gw1.Stats().ClientsDeparted) }, 1)
	waitCount(t, "gw2 departures", func() int { return int(gw2.Stats().ClientsDeparted) }, 1)
	deadline := time.Now().Add(3 * time.Second)
	for gw2.RecordedReplies() != 0 || gw1.RecordedReplies() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("records not dropped: gw1=%d gw2=%d", gw1.RecordedReplies(), gw2.RecordedReplies())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestEnhancedClientStateSurvivesDeparture(t *testing.T) {
	// Enhanced clients' identifiers outlive connections (that is the
	// point of section 3.5), so their records are not dropped on
	// disconnect.
	d := fastDomain(t, "ny", 3)
	deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte("x")), orb.InvokeOptions{ServiceContexts: enhancedContext("sticky")}); err != nil {
		t.Fatal(err)
	}
	waitCount(t, "recorded replies", gw.RecordedReplies, 1)
	_ = conn.Close()
	time.Sleep(50 * time.Millisecond)
	if gw.RecordedReplies() != 1 {
		t.Fatalf("enhanced client's record dropped on disconnect")
	}
}

func TestLittleEndianClientThroughGateway(t *testing.T) {
	// A client whose ORB marshals little-endian (byte-order flag 1) must
	// interoperate: the gateway re-encodes the reply in the request's
	// byte order.
	d := fastDomain(t, "ny", 3)
	deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()

	// Hand-roll a little-endian request on the raw connection.
	args := cdr.NewWriter(cdr.LittleEndian)
	args.WriteOctetSeq([]byte("le"))
	msg, err := giop.EncodeRequest(cdr.LittleEndian, giop.Request{
		RequestID:        1,
		ResponseExpected: true,
		ObjectKey:        []byte(keyRegister),
		Operation:        "append",
		Args:             args.Bytes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := orb.DialRaw(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	if err := giop.WriteMessage(raw, msg); err != nil {
		t.Fatal(err)
	}
	repMsg, err := giop.ReadMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if repMsg.Header.Order != cdr.LittleEndian {
		t.Fatalf("reply byte order = %v, want little-endian", repMsg.Header.Order)
	}
	rep, err := giop.DecodeReply(repMsg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != giop.ReplyNoException || rep.RequestID != 1 {
		t.Fatalf("reply = %+v", rep)
	}
	rr := cdr.NewReader(rep.Result, rep.ResultOrder)
	if got := rr.ReadLongLong(); got != 1 {
		t.Fatalf("result = %d", got)
	}
}

func TestVotingStyleThroughGateway(t *testing.T) {
	d := fastDomain(t, "ny", 4)
	deployRegister(t, d, replication.ActiveWithVoting, 3)
	gw, err := d.AddGateway(3, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	r, err := conn.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte("v")), orb.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 1 {
		t.Fatalf("append = %d", got)
	}
}

func TestGIOP12ClientThroughGateway(t *testing.T) {
	// A GIOP 1.2 client (different request/reply headers, TargetAddress
	// union) must pass through the gateway unchanged: the gateway
	// answers in the version the client spoke.
	d := fastDomain(t, "ny", 3)
	apps := deployRegister(t, d, replication.Active, 2)
	gw, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	conn.SetGIOPMinor(2)
	for i := 1; i <= 5; i++ {
		r, err := conn.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte("g")), orb.InvokeOptions{})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := r.ReadLongLong(); got != int64(i) {
			t.Fatalf("call %d = %d", i, got)
		}
	}
	waitInt(t, func() int64 { return apps[0].totalOps() }, 5, "ops")
}

func TestLargeFragmentedRequestThroughGateway(t *testing.T) {
	// A GIOP 1.2 request large enough to be fragmented on the wire must
	// cross the gateway and come back intact (the reply is fragmented
	// too).
	d := fastDomain(t, "ny", 3)
	deployRegister(t, d, replication.Active, 2)
	gw, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	conn.SetGIOPMinor(2)

	payload := make([]byte, 100_000) // > DefaultFragmentSize
	for i := range payload {
		payload[i] = byte(i)
	}
	r, err := conn.Call([]byte(keyRegister), "append", encodeOctetSeq(payload), orb.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 1 {
		t.Fatalf("append = %d", got)
	}
	r, err = conn.Call([]byte(keyRegister), "read", nil, orb.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := r.ReadOctetSeq()
	if len(got) != len(payload) {
		t.Fatalf("read %d bytes, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d corrupted through fragmentation", i)
		}
	}
}

// TestRepliesArriveWholeInEveryVersion drives both ways the gateway
// writes a reply — one gathered write of head and result, and the encoded
// message written frame by frame — with clients of every GIOP minor
// version: an empty result, one of 20 KiB, which every version gathers,
// and one of 40 KiB, which 1.0 gathers whole and 1.1 and 1.2 fragment.
func TestRepliesArriveWholeInEveryVersion(t *testing.T) {
	d := fastDomain(t, "ny", 3)
	deployRegister(t, d, replication.Active, 2)
	gw, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	var conns [3]*orb.Conn
	for minor := range conns {
		conn, err := orb.Dial(gw.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		conn.SetGIOPMinor(byte(minor))
		conns[minor] = conn
	}
	var want []byte
	for round := 0; round < 3; round++ {
		for minor, conn := range conns {
			r, err := conn.Call([]byte(keyRegister), "read", nil, orb.InvokeOptions{})
			if err != nil {
				t.Fatalf("1.%d: read of %d bytes: %v", minor, len(want), err)
			}
			if got := r.ReadOctetSeq(); r.Err() != nil || !bytes.Equal(got, want) {
				t.Fatalf("1.%d: read %d bytes (err %v), want the %d appended", minor, len(got), r.Err(), len(want))
			}
		}
		chunk := bytes.Repeat([]byte{byte(round), 0xa5}, 10<<10)
		want = append(want, chunk...)
		if _, err := conns[round].Call([]byte(keyRegister), "append", encodeOctetSeq(chunk), orb.InvokeOptions{}); err != nil {
			t.Fatalf("1.%d: append: %v", round, err)
		}
	}
}

func TestGatewayLocateViaClientAPI(t *testing.T) {
	d := fastDomain(t, "ny", 2)
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
	status, err := conn.Locate([]byte(keyRegister), time.Second)
	if err != nil || status != giop.LocateObjectHere {
		t.Fatalf("locate = %v, %v", status, err)
	}
	status, err = conn.Locate([]byte("ghost"), time.Second)
	if err != nil || status != giop.LocateUnknownObject {
		t.Fatalf("locate ghost = %v, %v", status, err)
	}
}

func TestTwoGatewaysOneProcessorShareTheRecord(t *testing.T) {
	// The section 3.5 record belongs to the processor's membership in the
	// gateway group, not to a gateway instance: two gateways on one
	// processor answer reissues from the same record, and removing one
	// leaves the other's record intact.
	d := fastDomain(t, "ny", 3)
	apps := deployRegister(t, d, replication.Active, 2)
	gwA, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	gwB, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	opts := orb.InvokeOptions{RequestID: 9, ServiceContexts: enhancedContext("shared-record-client")}
	call := func(addr string) int64 {
		t.Helper()
		conn, err := orb.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		r, err := conn.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte("x")), opts)
		if err != nil {
			t.Fatal(err)
		}
		return r.ReadLongLong()
	}
	answered := func(what string, wantA, wantB uint64) {
		t.Helper()
		a, b := gwA.Stats().AnsweredFromCache, gwB.Stats().AnsweredFromCache
		if a != wantA || b != wantB {
			t.Fatalf("gwA replies=%d gwB replies=%d: after %s AnsweredFromCache = %d/%d, want %d/%d",
				gwA.RecordedReplies(), gwB.RecordedReplies(), what, a, b, wantA, wantB)
		}
	}

	if got := call(gwA.Addr()); got != 1 {
		t.Fatalf("append = %d", got)
	}
	if got := call(gwA.Addr()); got != 1 {
		t.Fatalf("reissue to the first gateway returned %d, want the recorded result 1", got)
	}
	answered("the reissue to the first gateway", 1, 0)
	if got := call(gwB.Addr()); got != 1 {
		t.Fatalf("reissue to the second gateway returned %d, want the recorded result 1", got)
	}
	answered("the reissue to the second gateway", 1, 1)

	if err := d.RemoveGateway(gwB, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := call(gwA.Addr()); got != 1 {
		t.Fatalf("reissue after removing the second gateway returned %d, want 1", got)
	}
	answered("removing the second gateway", 2, 1)
	for i, app := range apps {
		if got := app.totalOps(); got > 1 {
			t.Fatalf("replica %d executed %d ops, want 1", i, got)
		}
	}
	waitInt(t, func() int64 { return apps[0].totalOps() }, 1, "ops")
}
