package core_test

import (
	"bytes"
	"errors"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/admission"
	"eternalgw/internal/cdr"
	"eternalgw/internal/domain"
	"eternalgw/internal/giop"
	"eternalgw/internal/memnet"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
)

// datagramAudit keeps every datagram any processor of a domain broadcast,
// by reference, with its checksum at that moment. On memnet the receivers
// hold the sender's slice, a request's datagram is the buffer the gateway
// read it into and a response's the buffer the servant wrote its result
// in: nobody may have written to one after its first Broadcast.
type datagramAudit struct {
	mu      sync.Mutex
	entries []auditedDatagram
}

type auditedDatagram struct {
	payload []byte
	sum     uint32
}

type auditTransport struct {
	totem.Transport
	audit *datagramAudit
}

func (a *auditTransport) Broadcast(payload []byte) error {
	a.audit.mu.Lock()
	a.audit.entries = append(a.audit.entries, auditedDatagram{payload, crc32.ChecksumIEEE(payload)})
	a.audit.mu.Unlock()
	return a.Transport.Broadcast(payload)
}

// holding returns the datagrams that contain mark, having checked that
// none broadcast so far was written to since.
func (a *datagramAudit) holding(t *testing.T, mark []byte) (found [][]byte) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, e := range a.entries {
		if crc32.ChecksumIEEE(e.payload) != e.sum {
			t.Errorf("datagram %d (%d bytes) was written to after it was broadcast", i, len(e.payload))
		}
		if bytes.Contains(e.payload, mark) {
			found = append(found, e.payload)
		}
	}
	return found
}

// auditedDomain is fastDomain on a network the test listens in on. No
// packing: every message travels in the buffer it was submitted in.
func auditedDomain(t *testing.T, name string, nodes int) (*domain.Domain, *datagramAudit) {
	t.Helper()
	net, audit := memnet.New(), &datagramAudit{}
	d, err := domain.New(domain.Config{
		Name:  name,
		Nodes: nodes,
		Totem: totem.Config{
			IdleHold:        100 * time.Microsecond,
			TokenRetransmit: 10 * time.Millisecond,
			FailTimeout:     time.Second,
			GatherTimeout:   20 * time.Millisecond,
			MaxPackCount:    1,
		},
		GatewayInvokeTimeout: 5 * time.Second,
		TransportFactory: func(id memnet.NodeID) (totem.Transport, error) {
			ep, err := net.Attach(id)
			return &auditTransport{Transport: ep, audit: audit}, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d, audit
}

func mark(b byte) []byte { return bytes.Repeat([]byte{b}, 700) }

// TestPipelinedRequestsAreReadIntoTheirOwnDatagrams: two requests that
// arrive in one TCP segment are conveyed from two buffers, each the
// client's bytes behind the domain's headers; the reply to a read is the
// datagram the servant wrote the value into; and none of them is written
// to once broadcast.
func TestPipelinedRequestsAreReadIntoTheirOwnDatagrams(t *testing.T) {
	d, audit := auditedDomain(t, "fr", 2)
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

	var wire bytes.Buffer
	sent := map[byte][]byte{}
	for i, m := range []byte{'A', 'B'} {
		req, err := giop.EncodeRequestV(cdr.LittleEndian, 2, giop.Request{
			RequestID: uint32(i + 1), ResponseExpected: true, ObjectKey: []byte(keyRegister), Operation: "append", Args: leOctets(mark(m)),
		})
		if err != nil {
			t.Fatal(err)
		}
		sent[m] = giop.Marshal(req)
		wire.Write(sent[m])
	}
	if _, err := raw.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 2; i++ {
		if _, err := giop.ReadMessage(raw); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	r, err := conn.Call([]byte(keyRegister), "read", nil, orb.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Each request has its own goroutine at the gateway: either may be
	// ordered first.
	value := r.ReadOctetSeq()
	if !bytes.Equal(value, append(mark('A'), mark('B')...)) && !bytes.Equal(value, append(mark('B'), mark('A')...)) {
		t.Fatalf("the register holds %d bytes, not the two appends", len(value))
	}

	for m, other := range map[byte]byte{'A': 'B', 'B': 'A'} {
		var invocation []byte
		for _, dg := range audit.holding(t, mark(m)) {
			if !bytes.Contains(dg, []byte("append")) {
				continue // the read's response
			}
			if invocation != nil {
				t.Fatalf("request %c was broadcast in two datagrams", m)
			}
			invocation = dg
		}
		switch {
		case invocation == nil:
			t.Fatalf("request %c was never broadcast", m)
		case bytes.Contains(invocation, mark(other)[:64]):
			t.Errorf("the datagram of request %c holds request %c too: they shared a read buffer", m, other)
		case !bytes.HasSuffix(invocation, sent[m]):
			t.Errorf("the datagram of request %c does not end with the client's %d bytes: it was not conveyed verbatim", m, len(sent[m]))
		}
	}
	var response []byte
	for _, dg := range audit.holding(t, value) {
		response = dg
	}
	if response == nil {
		t.Error("the read's response was never broadcast whole")
	}
	// Read into, and written in, the buffers that were broadcast: three
	// invocations at the gateway's processor, three responses at the replica's.
	for i, what := range []string{"responses", "invocations"} {
		if s := d.Node(i).Totem.Stats(); s.FramedInPlace < 3 {
			t.Errorf("%s: %d datagrams framed in place, %d by copy; want at least 3 in place", what, s.FramedInPlace, s.FramedByCopy)
		}
	}
}

func leOctets(b []byte) []byte {
	w := cdr.NewWriter(cdr.LittleEndian)
	w.WriteOctetSeq(b)
	return w.Bytes()
}

// TestOnlyForwardedFramesReachTheDomain: a request the gateway answers
// itself — from the gateway-group record, or with a shed — stays in the
// buffer it was read into, which is dropped with it: nothing of it is
// ever broadcast. (A cancelled request is not such a one: its invocation
// is in the total order before the cancel can arrive.)
func TestOnlyForwardedFramesReachTheDomain(t *testing.T) {
	d, audit := auditedDomain(t, "fw", 2)
	apps := deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGatewayAdmission(1, "", &admission.Config{Rate: 0.001, Burst: 2})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	sc := enhancedContext("frame-client")

	call := func(id uint32, m byte) error {
		_, err := conn.Call([]byte(keyRegister), "append", encodeOctetSeq(mark(m)), orb.InvokeOptions{RequestID: id, ServiceContexts: sc})
		return err
	}
	if err := call(9, 'X'); err != nil {
		t.Fatal(err)
	}
	// The same operation again, as after a failover — with other bytes, so
	// that the test can tell the two frames apart.
	if err := call(9, 'Y'); err != nil {
		t.Fatal(err)
	}
	var sysEx *orb.SystemException
	if err := call(10, 'Z'); !errors.As(err, &sysEx) || sysEx.RepoID != orb.RepoTransient {
		t.Fatalf("third request: %v, want a shed", err)
	}
	if st := gw.Stats(); st.AnsweredFromCache != 1 || st.RequestsShed != 1 || st.RequestsForwarded != 1 {
		t.Fatalf("gateway stats %+v: want one request forwarded, one answered from the record, one shed", st)
	}
	if n := len(audit.holding(t, mark('X'))); n != 1 {
		t.Errorf("the forwarded request was broadcast in %d datagrams, want 1", n)
	}
	for _, m := range []byte{'Y', 'Z'} {
		if n := len(audit.holding(t, mark(m)[:64])); n != 0 {
			t.Errorf("request %c, answered at the gateway, reached the domain in %d datagrams", m, n)
		}
	}
	if got := apps[0].totalOps(); got != 1 {
		t.Errorf("the servant executed %d operations, want 1", got)
	}
}
