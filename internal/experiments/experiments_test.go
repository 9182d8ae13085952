package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/core"
	"eternalgw/internal/domain"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/giop"
	"eternalgw/internal/ior"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/thinclient"
	"eternalgw/internal/totem"
)

// claims is the index of the paper's figures and evaluated claims
// (DESIGN.md section 4, EXPERIMENTS.md): each entry drives whole domains
// and fails unless the measurable part of its claim holds.
var claims = []struct {
	id    string
	check func(*testing.T)
}{
	{"E1", claimMultiDomain},          // figure 1
	{"E2", claimInfrastructure},       // figure 2, section 2
	{"E3", claimDuplicateSuppression}, // figure 3, section 3.3
	{"E4", claimEncapsulation},        // figure 4
	{"E5", claimGatewayLoops},         // figure 5
	{"E6", claimOperationIdentifiers}, // figure 6, section 3.3
	{"E7", claimSingleGatewayFailure}, // section 3.4
	{"E8", claimGatewayFailover},      // section 3.5
	{"E9", claimReplicationStyles},    // section 2
	{"E10", claimGatewayScalability},  // sections 1, 3.2
	{"E11", claimReplicaConsistency},  // section 2.2
	{"E12", claimStateTransfer},       // section 2.2
}

// TestAllExperimentsRunQuick checks every claim of the index in turn.
func TestAllExperimentsRunQuick(t *testing.T) {
	skipShort(t)
	for _, c := range claims {
		t.Run(c.id, c.check)
	}
}

func TestE3ShapeExactSuppression(t *testing.T) { skipShort(t); claimDuplicateSuppression(t) }

func TestE7ShapeShowsAbandonment(t *testing.T) { skipShort(t); claimSingleGatewayFailure(t) }

func TestE8ShapeZeroLossZeroDuplication(t *testing.T) { skipShort(t); claimGatewayFailover(t) }

func TestE11ShapeConsistency(t *testing.T) { skipShort(t); claimReplicaConsistency(t) }

// claimMultiDomain (figure 1): a replicated client inside the domain, an
// unreplicated client through its gateway, and one through a second
// domain's gateway and replicated bridge all complete every operation,
// and the replicated server executes each of them once.
func claimMultiDomain(t *testing.T) {
	const ops = 30
	ny, apps, _ := serve(t, 3, 2)
	nyRef := publish(t, ny, regKey)
	rm := ny.Node(2).RM
	if err := rm.WaitSynced(domain.DefaultGatewayGroup, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	la := newDomain(t, "los-angeles", 2)
	err := la.Manager().CreateReplicatedObject(110, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 2,
		MinReplicas:     1,
		ObjectKey:       []byte("exp/bridge"),
	}, func() (replication.Application, error) {
		return domain.NewBridgeApp(nyRef, []byte("exp-bridge"), 10*time.Second), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	addGateway(t, la, 1)

	x := OctetSeqArg([]byte("x"))
	paths := []struct {
		name string
		call func(i int) error
	}{
		{"replicated client, same domain", func(i int) error {
			_, err := invoke(rm, uint32(i), "append", x)
			return err
		}},
		{"unreplicated client via 1 gateway", resolve(t, nyRef, x)},
		{"unreplicated client via 2 domains", resolve(t, publish(t, la, "exp/bridge"), x)},
	}
	for _, p := range paths {
		for i := 1; i <= ops; i++ {
			if err := p.call(i); err != nil {
				t.Fatalf("%s: operation %d: %v", p.name, i, err)
			}
		}
	}
	want := int64(len(paths) * ops)
	if !settle(func() bool { return apps[0].Ops() == want && apps[1].Ops() == want }) {
		t.Errorf("replicas executed %d and %d operations, want %d each", apps[0].Ops(), apps[1].Ops(), want)
	}
}

// claimInfrastructure (figure 2, section 2): an invocation through the
// fault tolerance infrastructure (totem and three active replicas)
// returns what the same invocation on a plain ORB returns, at every
// payload size.
func claimInfrastructure(t *testing.T) {
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	srv.Register([]byte("plain"), &RegisterApp{})
	plain := dial(t, srv.Addr())

	d := newDomain(t, "ny", 3)
	deploy(t, d, regGroup, regKey, replication.Active, 3)
	rm := joinClient(t, d, 2)
	id := uint32(0)
	for _, size := range []int{16, 256, 4096} {
		payload := pattern(size)
		args := OctetSeqArg(payload)
		for i := 0; i < 10; i++ {
			r, err := plain.Call([]byte("plain"), "echo", args, orb.InvokeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := r.ReadOctetSeq(); !bytes.Equal(got, payload) {
				t.Fatalf("plain ORB, %d B: echo returned %d other bytes", size, len(got))
			}
			id++
			rep, err := invoke(rm, id, "echo", args)
			if err != nil {
				t.Fatal(err)
			}
			if got := cdr.NewReader(rep.Result, rep.ResultOrder).ReadOctetSeq(); !bytes.Equal(got, payload) {
				t.Fatalf("infrastructure, %d B: echo returned %d other bytes", size, len(got))
			}
		}
	}
}

// claimDuplicateSuppression (figure 3, section 3.3): behind k active
// replicas the gateway delivers one response per request and suppresses
// the other k-1 copies, and every replica executes every operation once.
func claimDuplicateSuppression(t *testing.T) {
	const ops = 15
	for _, k := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			d, apps, gw := serve(t, k+1, k)
			conn := dial(t, gw.Addr())
			for i := 0; i < ops; i++ {
				call(t, conn, regKey, "append", OctetSeqArg([]byte("x")))
			}
			rm := d.Node(k).RM
			wantDup := uint64(ops * (k - 1))
			settle(func() bool { return rm.Stats().DuplicateResponses >= wantDup })
			if st := rm.Stats(); st.ResponsesDelivered != ops || st.DuplicateResponses != wantDup {
				t.Errorf("delivered %d and suppressed %d responses, want %d and %d",
					st.ResponsesDelivered, st.DuplicateResponses, ops, wantDup)
			}
			for i, app := range apps {
				if app.Ops() != ops {
					t.Errorf("replica %d executed %d operations, want %d", i, app.Ops(), ops)
				}
			}
		})
	}
}

// claimEncapsulation (figure 4): the fault tolerance header costs the
// same bytes whatever IIOP message it wraps, and the gateway's multicast
// (b) and an intra-domain multicast (c) differ only in the client
// identifier, unused in (c): an all-ones identifier against zero differs
// in its 8 bytes and nowhere else.
func claimEncapsulation(t *testing.T) {
	overhead := -1
	for _, size := range []int{0, 64, 1024} {
		wire, err := giop.EncodeRequest(cdr.BigEndian, giop.Request{
			RequestID:        7,
			ResponseExpected: true,
			ObjectKey:        []byte(regKey),
			Operation:        "echo",
			Args:             OctetSeqArg(make([]byte, size)),
		})
		if err != nil {
			t.Fatal(err)
		}
		formA := giop.Marshal(wire)
		msg := replication.Message{
			Header: replication.Header{
				Kind:     replication.KindInvocation,
				ClientID: ^uint64(0),
				SrcGroup: domain.DefaultGatewayGroup,
				DstGroup: regGroup,
				Op:       replication.OperationID{ParentTS: 123456, ChildSeq: 7},
			},
			Payload: formA,
		}
		formB := replication.Encode(msg)
		msg.Header.ClientID = replication.UnusedClientID
		formC := replication.Encode(msg)
		if overhead < 0 {
			overhead = len(formB) - len(formA)
		}
		if got := len(formB) - len(formA); got != overhead {
			t.Errorf("%d B args: the header adds %d B, and %d B at 0 B args", size, got, overhead)
		}
		if len(formC) != len(formB) {
			t.Fatalf("%d B args: forms (b) and (c) are %d and %d B", size, len(formB), len(formC))
		}
		differ := 0
		for i := range formB {
			if formB[i] != formC[i] {
				differ++
			}
		}
		if differ != 8 {
			t.Errorf("%d B args: forms (b) and (c) differ in %d bytes, want the client identifier's 8", size, differ)
		}
	}
}

// claimGatewayLoops (figure 5): the gateway's inbound loop forwards every
// request into the domain and its outbound loop returns one reply for
// each, abandoning none.
func claimGatewayLoops(t *testing.T) {
	const ops = 40
	_, _, gw := serve(t, 3, 2)
	conn := dial(t, gw.Addr())
	for i := 0; i < ops; i++ {
		call(t, conn, regKey, "ops", nil)
	}
	if st := gw.Stats(); st.RequestsReceived != ops || st.RequestsForwarded != ops || st.RepliesReturned != ops || st.RequestsAbandoned != 0 {
		t.Errorf("gateway %+v, want %d received, forwarded and replied, none abandoned", st, ops)
	}
}

// relay forwards "relay" calls to the nested group as appends, so every
// replica of its group issues the same nested invocation.
type relay struct{ h *replication.Handle }

func (a relay) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	payload := args.ReadOctetSeq()
	if err := args.Err(); err != nil {
		return err
	}
	r, err := a.h.Invoke([]byte("exp/nested"), "append", OctetSeqArg(payload), 10*time.Second)
	if err != nil {
		return err
	}
	reply.WriteLongLong(r.ReadLongLong())
	return r.Err()
}

func (relay) State() ([]byte, error) { return nil, nil }
func (relay) SetState([]byte) error  { return nil }

// claimOperationIdentifiers (figure 6, section 3.3): two replicas of a
// group each issue a nested invocation per operation; both determine the
// same identifier, which carries the parent's timestamp, so the nested
// group sees N identifiers for 2N invocations and executes each once.
func claimOperationIdentifiers(t *testing.T) {
	const (
		ops                           = 15
		front     replication.GroupID = 120
		nestedGrp replication.GroupID = 121
	)
	d := newDomain(t, "ny", 3)
	nested := deploy(t, d, nestedGrp, "exp/nested", replication.Active, 2)
	if err := d.Node(0).RM.CreateGroup(front, replication.Active, []byte("exp/front")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rm := d.Node(i).RM
		if err := rm.WaitForGroup(front, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := rm.JoinGroup(front, relay{rm.Handle(front)}); err != nil {
			t.Fatal(err)
		}
		if err := rm.WaitSynced(front, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Observers fire at group members only; node 0 hosts a nested replica.
	var (
		mu     sync.Mutex
		seen   = map[replication.OperationID]int{}
		copies int
	)
	d.Node(0).RM.SetObserver(nestedGrp, func(msg replication.Message, _ uint64) {
		if msg.Header.Kind == replication.KindInvocation {
			mu.Lock()
			seen[msg.Header.Op]++
			copies++
			mu.Unlock()
		}
	})
	conn := dial(t, addGateway(t, d, 2).Addr())
	for i := 0; i < ops; i++ {
		call(t, conn, "exp/front", "relay", OctetSeqArg([]byte("n")))
	}
	settle(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return copies == 2*ops && nested[0].Ops() == ops && nested[1].Ops() == ops
	})

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != ops {
		t.Errorf("%d distinct nested identifiers for %d operations", len(seen), ops)
	}
	for id, n := range seen {
		if id.ParentTS == 0 || n != 2 {
			t.Errorf("identifier %+v invoked %d times, want once by each issuing replica, with the parent's timestamp", id, n)
		}
	}
	for i, app := range nested {
		if app.Ops() != ops || !bytes.Equal(app.Value(), nested[0].Value()) {
			t.Errorf("nested replica %d executed %d operations, want %d, into replica 0's state", i, app.Ops(), ops)
		}
	}
}

// claimSingleGatewayFailure (section 3.4): with plain ORBs the one
// gateway is a single point of failure. The request inside the domain
// when it dies, and those sent while it is down, are abandoned; resent
// through a recovered gateway, which cannot recognize the client, the one
// that had already executed executes again.
func claimSingleGatewayFailure(t *testing.T) {
	const total, killAt = 12, 6
	d, apps, gw := serve(t, 3, 2)
	conn := dial(t, gw.Addr())
	request := func(c *orb.Conn, id uint32, timeout time.Duration) error {
		op, args := "append", OctetSeqArg([]byte("x"))
		if id == killAt {
			op, args = "work", WorkArg(150, []byte("x"))
		}
		_, err := c.Call([]byte(regKey), op, args, orb.InvokeOptions{RequestID: id, Timeout: timeout})
		return err
	}
	for id := uint32(1); id < killAt; id++ {
		if err := request(conn, id, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Request killAt executes for 150 ms; the gateway fails 50 ms in.
	inFlight := make(chan error, 1)
	go func() { inFlight <- request(conn, killAt, 2*time.Second) }()
	time.Sleep(50 * time.Millisecond)
	_ = gw.Close()
	abandoned := 0
	if <-inFlight != nil {
		abandoned++
	}
	for id := uint32(killAt + 1); id <= total; id++ {
		if request(conn, id, 300*time.Millisecond) != nil {
			abandoned++
		}
	}
	if abandoned < 1 {
		t.Error("no request was abandoned when the only gateway failed")
	}

	conn2 := dial(t, addGateway(t, d, 2).Addr())
	for id := uint32(killAt); id <= total; id++ {
		if err := request(conn2, id, 2*time.Second); err != nil {
			t.Fatalf("resend %d: %v", id, err)
		}
	}
	if !settle(func() bool { return apps[0].Ops() > total }) {
		t.Errorf("%d operations executed for %d distinct requests: the resend was not re-executed", apps[0].Ops(), total)
	}
}

// claimGatewayFailover (section 3.5): redundant gateways and the enhanced
// client lose and duplicate no operation while gateways die, failing
// over once per gateway killed.
func claimGatewayFailover(t *testing.T) {
	const total = 15
	d := newDomain(t, "ny", 4)
	apps := deploy(t, d, regGroup, regKey, replication.Active, 2)
	for i := 0; i < 3; i++ {
		addGateway(t, d, (i+2)%4)
	}
	c, err := thinclient.Dial(publish(t, d, regKey), thinclient.Config{CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	killed := 0
	for i := 1; i <= total; i++ {
		if i%(total/3) == 0 && killed < 2 {
			_ = d.Gateways()[killed].Close()
			killed++
		}
		r, err := c.Call("append", OctetSeqArg([]byte("x")))
		if err != nil {
			t.Fatalf("operation %d lost: %v", i, err)
		}
		if got := r.ReadLongLong(); got != int64(i) {
			t.Fatalf("operation %d returned count %d: lost or duplicated", i, got)
		}
	}
	if !settle(func() bool { return apps[0].Ops() == total && apps[1].Ops() == total }) {
		t.Errorf("replicas executed %d and %d operations for %d requests", apps[0].Ops(), apps[1].Ops(), total)
	}
	if st := c.Stats(); st.Failovers != uint64(killed) {
		t.Errorf("%d failovers for %d gateways killed", st.Failovers, killed)
	}
}

// claimReplicationStyles (section 2): after the primary (or first)
// replica crashes, active replication needs no failover, and warm
// passive replays only what followed its last state sync, fewer
// operations than cold passive replays after its last checkpoint.
func claimReplicationStyles(t *testing.T) {
	const ops = 20
	replayed := map[replication.Style]uint64{}
	for _, style := range []replication.Style{replication.Active, replication.WarmPassive, replication.ColdPassive} {
		t.Run(style.String(), func(t *testing.T) {
			d := newDomain(t, "ny", 3)
			deploy(t, d, regGroup, regKey, style, 2)
			rm := joinClient(t, d, 2)
			x := OctetSeqArg([]byte("x"))
			for i := 1; i <= ops; i++ {
				if _, err := invoke(rm, uint32(i), "append", x); err != nil {
					t.Fatal(err)
				}
			}
			primary := rm.Members(regGroup)[0]
			for i := 0; i < d.Nodes(); i++ {
				if d.Node(i).ID == primary {
					d.CrashNode(i)
				}
			}
			deadline := time.Now().Add(15 * time.Second)
			for id := uint32(ops + 1); ; id++ {
				_, err := invoke(rm, id, "append", x)
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no recovery after the crash: %v", err)
				}
			}
			var failovers uint64
			for i := 0; i < d.Nodes(); i++ {
				st := d.Node(i).RM.Stats()
				failovers += st.Failovers
				replayed[style] += st.ReplayedInvocations
			}
			if style == replication.Active && failovers != 0 {
				t.Errorf("active replication failed over %d times", failovers)
			}
		})
	}
	if w, c := replayed[replication.WarmPassive], replayed[replication.ColdPassive]; w >= c {
		t.Errorf("warm passive replayed %d operations, cold passive %d: want fewer", w, c)
	}
}

// claimGatewayScalability (sections 1, 3.2): one gateway serves 1 to 16
// concurrent unreplicated clients, each on its own socket, and completes
// every operation of every one.
func claimGatewayScalability(t *testing.T) {
	const per = 10
	_, _, gw := serve(t, 3, 2)
	sent := uint64(0)
	for _, clients := range []int{1, 2, 4, 8, 16} {
		var done atomic.Int64
		concurrently(t, gw, clients, func(_ int, conn *orb.Conn) error {
			for i := 0; i < per; i++ {
				if _, err := conn.Call([]byte(regKey), "ops", nil, orb.InvokeOptions{}); err != nil {
					return fmt.Errorf("%d clients: %w", clients, err)
				}
				done.Add(1)
			}
			return nil
		})
		sent += uint64(clients * per)
		if n := done.Load(); n != int64(clients*per) {
			t.Errorf("%d clients completed %d of %d operations", clients, n, clients*per)
		}
	}
	if st := gw.Stats(); st.RepliesReturned != sent {
		t.Errorf("gateway returned %d replies for %d requests", st.RepliesReturned, sent)
	}
}

// claimReplicaConsistency (section 2.2): concurrent clients' appends
// interleave arbitrarily, but identically at every replica, so the
// replicas end byte-identical.
func claimReplicaConsistency(t *testing.T) {
	const clients, per = 4, 10
	_, apps, gw := serve(t, 3, 3)
	concurrently(t, gw, clients, func(c int, conn *orb.Conn) error {
		for i := 0; i < per; i++ {
			if _, err := conn.Call([]byte(regKey), "append", OctetSeqArg([]byte{byte('A' + c)}), orb.InvokeOptions{}); err != nil {
				return err
			}
		}
		return nil
	})
	const want = clients * per
	settle(func() bool { return apps[0].Ops() == want && apps[1].Ops() == want && apps[2].Ops() == want })
	for i, app := range apps {
		if app.Ops() != want || len(app.Value()) != want || !bytes.Equal(app.Value(), apps[0].Value()) {
			t.Errorf("replica %d executed %d operations into %d bytes, want %d into replica 0's state", i, app.Ops(), len(app.Value()), want)
		}
	}
}

// claimStateTransfer (section 2.2): a replica joining a group receives
// the state of every operation ordered before its join, intact, at every
// state size.
func claimStateTransfer(t *testing.T) {
	for _, size := range []int{1 << 10, 64 << 10, 512 << 10} {
		t.Run(fmt.Sprintf("%dKiB", size>>10), func(t *testing.T) {
			d := newDomain(t, "ny", 3)
			deploy(t, d, regGroup, regKey, replication.Active, 1)
			state := pattern(size)
			if _, err := invoke(joinClient(t, d, 2), 1, "set", OctetSeqArg(state)); err != nil {
				t.Fatal(err)
			}
			joiner := &RegisterApp{}
			rm := d.Node(1).RM
			if err := rm.JoinGroup(regGroup, joiner); err != nil {
				t.Fatal(err)
			}
			if err := rm.WaitSynced(regGroup, 10*time.Second); err != nil {
				t.Fatal(err)
			}
			if got := joiner.Value(); joiner.Ops() != 1 || !bytes.Equal(got, state) {
				t.Errorf("joiner holds %d operations and %d bytes, want 1 and the %d set", joiner.Ops(), len(got), size)
			}
		})
	}
}

const (
	regGroup replication.GroupID = 100
	regKey                       = "exp/register"
)

func skipShort(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-domain claims skipped in -short mode")
	}
}

// newDomain starts a domain with the fast protocol timeouts every claim
// uses, closed when the test ends.
func newDomain(t *testing.T, name string, nodes int) *domain.Domain {
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
		GatewayInvokeTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// deploy places a replicated RegisterApp and returns its replicas.
func deploy(t *testing.T, d *domain.Domain, grp replication.GroupID, key string, style replication.Style, replicas int) []*RegisterApp {
	t.Helper()
	var (
		mu   sync.Mutex
		apps []*RegisterApp
	)
	err := d.Manager().CreateReplicatedObject(grp, ftmgmt.Properties{
		Style:           style,
		InitialReplicas: replicas,
		MinReplicas:     replicas,
		ObjectKey:       []byte(key),
	}, func() (replication.Application, error) {
		mu.Lock()
		defer mu.Unlock()
		apps = append(apps, &RegisterApp{})
		return apps[len(apps)-1], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return apps
}

// serve starts a domain of the given size whose register has the given
// number of active replicas, behind a gateway on the last processor.
func serve(t *testing.T, nodes, replicas int) (*domain.Domain, []*RegisterApp, *core.Gateway) {
	t.Helper()
	d := newDomain(t, "ny", nodes)
	apps := deploy(t, d, regGroup, regKey, replication.Active, replicas)
	return d, apps, addGateway(t, d, nodes-1)
}

func addGateway(t *testing.T, d *domain.Domain, node int) *core.Gateway {
	t.Helper()
	gw, err := d.AddGateway(node, "")
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

func publish(t *testing.T, d *domain.Domain, key string) ior.Ref {
	t.Helper()
	ref, err := d.PublishIOR("IDL:eternalgw/Register:1.0", []byte(key))
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func dial(t *testing.T, addr string) *orb.Conn {
	t.Helper()
	conn, err := orb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

func call(t *testing.T, conn *orb.Conn, key, op string, args []byte) {
	t.Helper()
	if _, err := conn.Call([]byte(key), op, args, orb.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
}

// concurrently runs fn for each of n clients, each on its own connection
// to gw, and reports what they return.
func concurrently(t *testing.T, gw *core.Gateway, n int, fn func(c int, conn *orb.Conn) error) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := orb.Dial(gw.Addr())
			if err == nil {
				err = fn(c, conn)
				_ = conn.Close()
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// resolve returns an append through an unreplicated client connected to
// ref's first profile.
func resolve(t *testing.T, ref ior.Ref, args []byte) func(int) error {
	t.Helper()
	obj, conn, err := orb.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return func(int) error {
		_, err := obj.Call("append", args, orb.InvokeOptions{})
		return err
	}
}

// joinClient makes node i a client-only member of the gateway group, the
// group invoke calls from.
func joinClient(t *testing.T, d *domain.Domain, i int) *replication.Mechanisms {
	t.Helper()
	rm := d.Node(i).RM
	if err := rm.JoinGroup(domain.DefaultGatewayGroup, nil); err != nil {
		t.Fatal(err)
	}
	if err := rm.WaitSynced(domain.DefaultGatewayGroup, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return rm
}

// invoke calls the register from inside the domain, as a replicated
// client of the gateway group.
func invoke(rm *replication.Mechanisms, id uint32, op string, args []byte) (giop.Reply, error) {
	rep, err := rm.Invoke(domain.DefaultGatewayGroup, 1, regGroup,
		replication.OperationID{ChildSeq: id},
		giop.Request{RequestID: id, ResponseExpected: true, ObjectKey: []byte(regKey), Operation: op, Args: args},
		10*time.Second)
	if err == nil && rep.Status != giop.ReplyNoException {
		err = fmt.Errorf("%s %d: reply status %v", op, id, rep.Status)
	}
	return rep, err
}

// settle polls cond for up to five seconds and reports whether it held.
func settle(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// pattern returns n bytes that are not all alike, so a truncated or
// shifted copy does not compare equal.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}
