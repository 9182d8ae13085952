package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/core"
	"eternalgw/internal/domain"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/giop"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
)

const (
	grpRegister replication.GroupID = 100
	keyRegister                     = "app/register"
	typeIDReg                       = "IDL:eternalgw/Register:1.0"

	grpGate replication.GroupID = 101
	keyGate                     = "app/gate"
)

func fastDomain(t *testing.T, name string, nodes int) *domain.Domain {
	t.Helper()
	return fastDomainTimeout(t, name, nodes, 5*time.Second)
}

// fastDomainTimeout is fastDomain with the gateways' invoke timeout.
func fastDomainTimeout(t *testing.T, name string, nodes int, invokeTimeout time.Duration) *domain.Domain {
	t.Helper()
	d, err := domain.New(domain.Config{
		Name:  name,
		Nodes: nodes,
		Totem: totem.Config{
			IdleHold:        100 * time.Microsecond,
			TokenRetransmit: 10 * time.Millisecond,
			FailTimeout:     80 * time.Millisecond,
			GatherTimeout:   20 * time.Millisecond,
		},
		GatewayInvokeTimeout: invokeTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// registerApp is a deterministic replicated register.
type registerApp struct {
	mu    sync.Mutex
	value []byte
	ops   int64
}

func (a *registerApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch op {
	case "append":
		a.value = append(a.value, args.ReadOctetSeq()...)
		a.ops++
		reply.WriteLongLong(a.ops)
		return args.Err()
	case "work":
		ms := args.ReadULong()
		data := args.ReadOctetSeq()
		if err := args.Err(); err != nil {
			return err
		}
		a.mu.Unlock()
		time.Sleep(time.Duration(ms) * time.Millisecond)
		a.mu.Lock()
		a.value = append(a.value, data...)
		a.ops++
		reply.WriteLongLong(a.ops)
		return nil
	case "read":
		reply.WriteOctetSeq(a.value)
		return nil
	case "ops":
		reply.WriteLongLong(a.ops)
		return nil
	default:
		return fmt.Errorf("registerApp: unknown op %q", op)
	}
}

func (a *registerApp) State() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteLongLong(a.ops)
	w.WriteOctetSeq(a.value)
	return w.Bytes(), nil
}

func (a *registerApp) SetState(state []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := cdr.NewReader(state, cdr.BigEndian)
	a.ops = r.ReadLongLong()
	a.value = append([]byte(nil), r.ReadOctetSeq()...)
	return r.Err()
}

func (a *registerApp) totalOps() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ops
}

// deployRegister places a replicated register on the first `replicas`
// nodes via the replication manager and returns the replica apps.
func deployRegister(t *testing.T, d *domain.Domain, style replication.Style, replicas int) []*registerApp {
	t.Helper()
	var (
		mu   sync.Mutex
		apps []*registerApp
	)
	err := d.Manager().CreateReplicatedObject(grpRegister, ftmgmt.Properties{
		Style:           style,
		InitialReplicas: replicas,
		MinReplicas:     replicas,
		ObjectKey:       []byte(keyRegister),
		TypeID:          typeIDReg,
	}, func() (replication.Application, error) {
		mu.Lock()
		defer mu.Unlock()
		app := &registerApp{}
		apps = append(apps, app)
		return app, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return apps
}

// gateApp is a register whose every invocation waits until its gate is
// closed.
type gateApp struct {
	registerApp
	gate chan struct{}
}

func (a *gateApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	<-a.gate
	return a.registerApp.Invoke(op, args, reply)
}

// deployGate places one gated register on the first node, under grpGate,
// and returns what closes its gate, which the test's cleanup calls too: a
// servant still waiting would hold the domain's Close.
func deployGate(t *testing.T, d *domain.Domain) (open func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	open = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open)
	err := d.Manager().CreateReplicatedObject(grpGate, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 1,
		MinReplicas:     1,
		ObjectKey:       []byte(keyGate),
		TypeID:          typeIDReg,
	}, func() (replication.Application, error) { return &gateApp{gate: gate}, nil })
	if err != nil {
		t.Fatal(err)
	}
	return open
}

// writeRequests writes one response-expected request per id, each an
// "ops" of the object the key names, in one write.
func writeRequests(t *testing.T, raw net.Conn, key string, ids ...uint32) {
	t.Helper()
	var wire bytes.Buffer
	for _, id := range ids {
		req, err := giop.EncodeRequest(cdr.BigEndian, giop.Request{
			RequestID: id, ResponseExpected: true, ObjectKey: []byte(key), Operation: "ops",
		})
		if err != nil {
			t.Fatal(err)
		}
		wire.Write(giop.Marshal(req))
	}
	if _, err := raw.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// readReply reads the next reply on a raw connection.
func readReply(t *testing.T, raw net.Conn) giop.Reply {
	t.Helper()
	_ = raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	msg, err := giop.ReadMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := giop.DecodeReply(msg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func encodeOctetSeq(b []byte) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteOctetSeq(b)
	return w.Bytes()
}

func TestUnreplicatedClientThroughGateway(t *testing.T) {
	d := fastDomain(t, "ny", 3)
	apps := deployRegister(t, d, replication.Active, 3)
	gw, err := d.AddGateway(0, "")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := d.PublishIOR(typeIDReg, []byte(keyRegister))
	if err != nil {
		t.Fatal(err)
	}
	// The IOR points at the gateway, not at any server replica.
	p, err := ref.PrimaryProfile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr() != gw.Addr() {
		t.Fatalf("IOR addr %s, gateway addr %s", p.Addr(), gw.Addr())
	}

	// A plain, unreplicated IIOP client connects and invokes.
	obj, conn, err := orb.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	r, err := obj.Call("append", encodeOctetSeq([]byte("hi")), orb.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 1 || r.Err() != nil {
		t.Fatalf("append = %d, err %v", got, r.Err())
	}
	r, err = obj.Call("read", nil, orb.InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadOctetSeq(); !bytes.Equal(got, []byte("hi")) {
		t.Fatalf("read = %q", got)
	}
	// Every replica executed the append exactly once.
	for i, app := range apps {
		waitInt(t, func() int64 { return app.totalOps() }, 1, fmt.Sprintf("replica %d ops", i))
	}
	// Three replicas responded per request; the gateway delivered one
	// and suppressed the duplicates (paper figure 3). They are ordered
	// behind the reply the client already has, so wait for them (reading
	// at once failed 1 run in 300, here and at the parent).
	for deadline := time.Now().Add(3 * time.Second); d.Node(0).RM.Stats().DuplicateResponses < 2; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("duplicate responses suppressed = %d, want >= 2", d.Node(0).RM.Stats().DuplicateResponses)
		}
	}
	st := gw.Stats()
	if st.RequestsForwarded != 2 || st.RepliesReturned != 2 {
		t.Fatalf("gateway stats = %+v", st)
	}
}

func TestGatewayAnswersLocateRequests(t *testing.T) {
	d := fastDomain(t, "ny", 2)
	deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGateway(0, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	// The gateway must claim to be the object so the client never
	// suspects it is not the server (paper section 3.1).
	if _, err := conn.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestGatewayUnknownObjectKey(t *testing.T) {
	d := fastDomain(t, "ny", 2)
	deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGateway(0, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_, err = conn.Call([]byte("no/such/object"), "read", nil, orb.InvokeOptions{})
	var sysEx *orb.SystemException
	if !errors.As(err, &sysEx) || sysEx.RepoID != giop.RepoObjectNotExist {
		t.Fatalf("err = %v, want OBJECT_NOT_EXIST", err)
	}
}

// TestTimedOutRequestMayHaveCompleted: the servant stalls past the
// gateway's invoke timeout. The request was multicast and runs to the end,
// so the client is told COMPLETED_MAYBE: told COMPLETED_NO, a plain client
// reissues under a new request id and the operation runs twice. A request
// whose reply never comes holds up no other on its connection: one read
// after it is answered first, and it at its deadline.
func TestTimedOutRequestMayHaveCompleted(t *testing.T) {
	const timeout = time.Second
	d := fastDomainTimeout(t, "ny", 2, timeout)
	apps := deployRegister(t, d, replication.Active, 1)
	deployGate(t, d)
	gw, err := d.AddGateway(1, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteULong(uint32((timeout + 300*time.Millisecond) / time.Millisecond)) // how long the servant stalls
	w.WriteOctetSeq([]byte("slow"))
	_, err = conn.Call([]byte(keyRegister), "work", w.Bytes(), orb.InvokeOptions{Timeout: 10 * time.Second})
	var sysEx *orb.SystemException
	if !errors.As(err, &sysEx) || sysEx.RepoID != giop.RepoCommFailure || sysEx.Minor != core.MinorOutcomeUnknown || sysEx.Completed != giop.CompletedMaybe {
		t.Fatalf("err = %v, want COMM_FAILURE minor %d COMPLETED_MAYBE", err, core.MinorOutcomeUnknown)
	}
	// It did run.
	waitInt(t, apps[0].totalOps, 1, "servant ops")

	raw, err := orb.DialRaw(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	start := time.Now()
	writeRequests(t, raw, keyGate, 1)
	writeRequests(t, raw, keyRegister, 2)
	if rep := readReply(t, raw); rep.RequestID != 2 || rep.Status != giop.ReplyNoException {
		t.Fatalf("first reply %+v, want request 2's", rep)
	}
	if elapsed := time.Since(start); elapsed >= timeout {
		t.Fatalf("request 2 was answered after %v, not before request 1 timed out (%v)", elapsed, timeout)
	}
	rep := readReply(t, raw)
	repo, minor, completed, err := giop.DecodeSystemException(rep.Result, rep.ResultOrder)
	if rep.RequestID != 1 || rep.Status != giop.ReplySystemException || err != nil || repo != giop.RepoCommFailure || minor != core.MinorOutcomeUnknown || completed != giop.CompletedMaybe {
		t.Fatalf("second reply to request %d: %s minor %d completed %d (%v), want request 1's COMM_FAILURE minor %d COMPLETED_MAYBE", rep.RequestID, repo, minor, completed, err, core.MinorOutcomeUnknown)
	}
	if elapsed := time.Since(start); elapsed < timeout {
		t.Fatalf("request 1 timed out after %v, before its timeout of %v", elapsed, timeout)
	}
}

// TestPipelinedRequestsCostTheGatewayNoGoroutine: 64 requests pipelined
// on one connection wait at a servant that blocks until the test lets it
// go. The gateway holds them without a goroutine each — a connection has
// two, its read loop and its replier — and once the servant is let go
// every reply arrives. After Close the gateway's goroutines are gone.
func TestPipelinedRequestsCostTheGatewayNoGoroutine(t *testing.T) {
	const requests = 64
	d := fastDomain(t, "pg", 2)
	open := deployGate(t, d)
	gw, err := d.AddGateway(1, "")
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	raw, err := orb.DialRaw(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	ids := make([]uint32, requests)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	writeRequests(t, raw, keyGate, ids...)
	deadline := time.Now().Add(5 * time.Second)
	for gw.Stats().RequestsForwarded != requests || gw.InFlight() != requests {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests forwarded, %d in flight; want %d of each", gw.Stats().RequestsForwarded, gw.InFlight(), requests)
		}
		time.Sleep(time.Millisecond)
	}
	if grew := runtime.NumGoroutine() - baseline; grew > 8 {
		t.Errorf("%d requests in flight on one connection: %d goroutines more than before it was made, want at most 8", requests, grew)
	}
	open()
	seen := make(map[uint32]bool)
	for range requests {
		rep := readReply(t, raw)
		if rep.Status != giop.ReplyNoException || rep.RequestID < 1 || rep.RequestID > requests || seen[rep.RequestID] {
			t.Fatalf("reply %+v after %d others", rep, len(seen))
		}
		seen[rep.RequestID] = true
	}
	_ = raw.Close()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after Close the process runs %d goroutines, %d before the connection was made", runtime.NumGoroutine(), baseline)
		}
	}
}

func TestDistinctTCPClientsGetDistinctIdentifiers(t *testing.T) {
	// Two plain clients use identical request ids; the gateway's
	// per-group client counters keep their operations separate (paper
	// section 3.2).
	d := fastDomain(t, "ny", 2)
	apps := deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGateway(0, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		conn, err := orb.Dial(gw.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_, err = conn.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte{byte('a' + i)}), orb.InvokeOptions{RequestID: 42})
		_ = conn.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	waitInt(t, func() int64 { return apps[0].totalOps() }, 2, "ops")
}

// TestGatewayConcurrentClients: clients on connections of their own call
// at once, and the gateway reads all their requests into regions of one
// slab (Gateway.carveFrame): each client appends a byte of its own, and
// every replica must hold each client's byte as often as it called.
func TestGatewayConcurrentClients(t *testing.T) {
	d := fastDomain(t, "ny", 3)
	apps := deployRegister(t, d, replication.Active, 2)
	gw, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	const clients, calls = 6, 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := orb.Dial(gw.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = conn.Close() }()
			for i := 0; i < calls; i++ {
				if _, err := conn.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte{byte('a' + c)}), orb.InvokeOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, app := range apps {
		waitInt(t, func() int64 { return app.totalOps() }, clients*calls, fmt.Sprintf("replica %d", i))
		app.mu.Lock()
		value := string(app.value)
		app.mu.Unlock()
		for c := 0; c < clients; c++ {
			if n := strings.Count(value, string(rune('a'+c))); n != calls {
				t.Errorf("replica %d holds %d of client %d's %d appends: %q", i, n, c, calls, value)
			}
		}
	}
}

func TestSingleGatewayFailureAbandonsAndDuplicates(t *testing.T) {
	// Paper section 3.4: with plain ORBs, the gateway is a single point
	// of failure. After it dies, the client's outstanding requests are
	// abandoned; when the client reconnects (to a recovered gateway) and
	// resends, the gateway cannot recognize the resend — the counter-
	// assigned client identifier differs — so the operation executes
	// twice.
	d := fastDomain(t, "ny", 3)
	apps := deployRegister(t, d, replication.Active, 2)
	gw1, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte("x")), orb.InvokeOptions{RequestID: 7}); err != nil {
		t.Fatal(err)
	}
	// The gateway process fails.
	_ = gw1.Close()
	if _, err := conn.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{RequestID: 8, Timeout: time.Second}); err == nil {
		t.Fatal("invocation through dead gateway succeeded")
	}
	// The gateway recovers (fresh process, fresh counters); the client
	// reconnects and resends its request with the same request id.
	gw2, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	conn2, err := orb.Dial(gw2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn2.Close() }()
	if _, err := conn2.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte("x")), orb.InvokeOptions{RequestID: 7}); err != nil {
		t.Fatal(err)
	}
	// The duplication the paper warns about: the append ran twice.
	waitInt(t, func() int64 { return apps[0].totalOps() }, 2, "ops after resend")
}

func TestEnhancedClientResendIsDeduplicated(t *testing.T) {
	// The same scenario as above, but the client supplies the unique
	// identifier of section 3.5 in its service context: the resent
	// request maps to the same operation identifier and is answered
	// without re-execution.
	d := fastDomain(t, "ny", 3)
	apps := deployRegister(t, d, replication.Active, 2)
	gw1, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	uniqueID := []byte("client-sb-0001")
	sc := []giop.ServiceContext{{ID: giop.FTClientContextID, Data: uniqueID}}

	conn, err := orb.Dial(gw1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte("x")), orb.InvokeOptions{RequestID: 7, ServiceContexts: sc}); err != nil {
		t.Fatal(err)
	}
	_ = gw1.Close()
	gw2, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	conn2, err := orb.Dial(gw2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn2.Close() }()
	r, err := conn2.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte("x")), orb.InvokeOptions{RequestID: 7, ServiceContexts: sc})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 1 {
		t.Fatalf("resent append returned %d, want the original result 1", got)
	}
	// The call returns on the first replica's response; this replica may
	// still be catching up, but it must never get past one execution.
	waitInt(t, func() int64 { return apps[0].totalOps() }, 1, "ops (2 means the resend executed)")
	// The recovered gateway either answered from the gateway-group
	// record or forwarded and the servers deduplicated; both uphold
	// exactly-once.
	st := gw2.Stats()
	if st.AnsweredFromCache == 0 && apps[0].totalOps() != 1 {
		t.Fatalf("gateway stats = %+v", st)
	}
}

func TestOneWayRequestThroughGateway(t *testing.T) {
	d := fastDomain(t, "ny", 2)
	apps := deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGateway(1, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Invoke([]byte(keyRegister), "append", encodeOctetSeq([]byte("o")), orb.InvokeOptions{OneWay: true}); err != nil {
		t.Fatal(err)
	}
	waitInt(t, func() int64 { return apps[0].totalOps() }, 1, "one-way append")
	// The gateway conveys one-ways without registering for a reply: no
	// invocation may be left pending or counted abandoned.
	time.Sleep(30 * time.Millisecond)
	if st := gw.Stats(); st.RequestsAbandoned != 0 {
		t.Fatalf("one-way counted abandoned: %+v", st)
	}
}

func TestGatewayWithPassiveServers(t *testing.T) {
	d := fastDomain(t, "ny", 3)
	apps := deployRegister(t, d, replication.WarmPassive, 2)
	gw, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	for i := 0; i < 5; i++ {
		if _, err := conn.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte("p")), orb.InvokeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Only the primary executed.
	total := apps[0].totalOps() + apps[1].totalOps()
	if total != 5 {
		t.Fatalf("combined ops = %d, want 5", total)
	}
}

func waitInt(t *testing.T, get func() int64, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if got := get(); got == want {
			return
		} else if got > want {
			t.Fatalf("%s = %d, want %d", what, got, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", what, get(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
