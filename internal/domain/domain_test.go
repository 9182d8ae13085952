package domain_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/domain"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/ior"
	"eternalgw/internal/memnet"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/thinclient"
	"eternalgw/internal/totem"
	"eternalgw/internal/udpnet"
)

func fastTotem() totem.Config {
	return totem.Config{
		IdleHold:        100 * time.Microsecond,
		TokenRetransmit: 10 * time.Millisecond,
		FailTimeout:     80 * time.Millisecond,
		GatherTimeout:   20 * time.Millisecond,
	}
}

func newDomain(t *testing.T, name string, nodes int) *domain.Domain {
	t.Helper()
	d, err := domain.New(domain.Config{
		Name:                 name,
		Nodes:                nodes,
		Totem:                fastTotem(),
		GatewayInvokeTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// adderApp sums submitted values.
type adderApp struct {
	mu    sync.Mutex
	total int64
}

func (a *adderApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch op {
	case "add":
		a.total += args.ReadLongLong()
		reply.WriteLongLong(a.total)
		return args.Err()
	case "get":
		reply.WriteLongLong(a.total)
		return nil
	default:
		return fmt.Errorf("adderApp: unknown op %q", op)
	}
}

func (a *adderApp) State() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteLongLong(a.total)
	return w.Bytes(), nil
}

func (a *adderApp) SetState(state []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := cdr.NewReader(state, cdr.BigEndian)
	a.total = r.ReadLongLong()
	return r.Err()
}

func int64Args(v int64) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteLongLong(v)
	return w.Bytes()
}

func TestDomainLifecycle(t *testing.T) {
	d := newDomain(t, "ny", 3)
	if d.Nodes() != 3 {
		t.Fatalf("nodes = %d", d.Nodes())
	}
	if _, err := d.PublishIOR("IDL:X:1.0", []byte("k")); err == nil {
		t.Fatal("PublishIOR succeeded with no gateways")
	}
	if _, err := d.AddGateway(0, ""); err != nil {
		t.Fatal(err)
	}
	ref, err := d.PublishIOR("IDL:X:1.0", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.PrimaryProfile(); err != nil {
		t.Fatal(err)
	}
}

// TestDomainFormsWithoutWaitingForGatherTimeout: New starts its
// processors one after another, so the first joins of each are lost at
// those not started yet — over udpnet, sent to ports nobody has bound. A
// ring of every configured processor forms once each has answered, and New
// returns long before a GatherTimeout of five seconds, which it used to
// wait out.
func TestDomainFormsWithoutWaitingForGatherTimeout(t *testing.T) {
	const nodes = 4
	for _, transport := range []string{"memnet", "udpnet"} {
		t.Run(transport, func(t *testing.T) {
			cfg := domain.Config{Name: "quick", Nodes: nodes, Totem: fastTotem()}
			cfg.Totem.GatherTimeout = 5 * time.Second
			if transport == "udpnet" {
				if testing.Short() {
					t.Skip("UDP transport test skipped in -short mode")
				}
				registry, err := udpnet.LoopbackRegistry(domain.MemberIDs(cfg.Name, nodes)...)
				if err != nil {
					t.Fatal(err)
				}
				cfg.TransportFactory = func(id memnet.NodeID) (totem.Transport, error) { return udpnet.Listen(id, registry) }
			}
			start := time.Now()
			d, err := domain.New(cfg)
			took := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Close)
			if took > time.Second {
				t.Fatalf("New took %v, want under 1s with GatherTimeout %v", took, cfg.Totem.GatherTimeout)
			}
			for i := 0; i < d.Nodes(); i++ {
				if got := d.Node(i).Totem.Members(); len(got) != nodes {
					t.Fatalf("%s stands in ring %v, want all %d processors", d.Node(i).ID, got, nodes)
				}
			}
			t.Logf("New took %v", took)
		})
	}
}

// TestLeaderModeStandUpIsSequenced: a leader-mode domain of four stands
// up an active group of three and a gateway. Every message of it — the
// gateway group's creation, the group's, the joins and state transfers,
// the gateway's join — is ordered by the sequencer the ring promotes at
// its first plain visit: the token goes the commit's two rotations and no
// further, and by the time AddGateway returns every processor is in that
// one epoch. (A ring that took its set-up traffic on the token rotated
// once more per message and promoted only once it had drained.)
func TestLeaderModeStandUpIsSequenced(t *testing.T) {
	const nodes = 4
	d, err := domain.New(domain.Config{Name: "setup", Nodes: nodes, Totem: totem.Config{Ordering: totem.OrderingLeader}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	err = d.Manager().CreateReplicatedObject(70, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 3,
		MinReplicas:     1,
		ObjectKey:       []byte("svc/adder"),
	}, func() (replication.Application, error) { return &adderApp{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddGateway(0, ""); err != nil {
		t.Fatal(err)
	}
	leader, start, _ := d.Node(0).Totem.Fastpath()
	var passes uint64
	for i := 0; i < d.Nodes(); i++ {
		n := d.Node(i).Totem
		if l, s, ok := n.Fastpath(); !ok || l != leader || s != start {
			t.Fatalf("%s is in the epoch of %q from %d (ok %v), %s in that of %q from %d", d.Node(i).ID, l, s, ok, d.Node(0).ID, leader, start)
		}
		st := n.Stats()
		if st.Reconfigs != 1 || st.Demotions != 0 {
			t.Fatalf("%s installed %d rings and was demoted %d times, want one ring and no demotion", d.Node(i).ID, st.Reconfigs, st.Demotions)
		}
		passes += st.TokenPasses
	}
	if passes != 2*nodes {
		t.Fatalf("the token was passed %d times, want the commit's two rotations, %d", passes, 2*nodes)
	}
}

func TestCrashAndRestartNode(t *testing.T) {
	d := newDomain(t, "ny", 3)
	const grp replication.GroupID = 60
	err := d.Manager().CreateReplicatedObject(grp, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 3,
		MinReplicas:     1,
		ObjectKey:       []byte("svc/adder"),
	}, func() (replication.Application, error) { return &adderApp{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	d.CrashNode(1)
	// Survivors drop the crashed member.
	deadline := time.Now().Add(5 * time.Second)
	for len(d.Node(0).RM.Members(grp)) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("members = %v", d.Node(0).RM.Members(grp))
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.RestartNode(1)
	// The node's ring membership heals (its replicas are gone until the
	// resource manager replaces them, which is exercised in ftmgmt).
	deadline = time.Now().Add(5 * time.Second)
	for len(d.Node(0).Totem.Members()) != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("ring = %v", d.Node(0).Totem.Members())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMultiDomainBridging reproduces figure 1: a customer's unreplicated
// client in Santa Barbara invokes, through the Los Angeles domain's
// gateway, a bridge object in LA that forwards to the New York domain's
// gateway, behind which the actual replicated server runs.
func TestMultiDomainBridging(t *testing.T) {
	_, _, _, add := bridgedAdder(t)
	checkBridgedTotals(t, add, 0)
}

func TestBridgeSurvivesRemoteGatewayFailover(t *testing.T) {
	ny := newDomain(t, "ny", 3)
	la := newDomain(t, "la", 2)

	const nyGrp replication.GroupID = 80
	serverKey := []byte("svc/adder")
	err := ny.Manager().CreateReplicatedObject(nyGrp, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 2,
		MinReplicas:     1,
		ObjectKey:       serverKey,
	}, func() (replication.Application, error) { return &adderApp{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	// Two redundant NY gateways.
	if _, err := ny.AddGateway(0, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := ny.AddGateway(1, ""); err != nil {
		t.Fatal(err)
	}
	nyRef, err := ny.PublishIOR("IDL:X:1.0", serverKey)
	if err != nil {
		t.Fatal(err)
	}

	bridge := domain.NewBridgeApp(nyRef, []byte("bridge-x"), 2*time.Second)
	defer bridge.Close()
	const laGrp replication.GroupID = 81
	if err := la.Node(0).RM.CreateGroup(laGrp, replication.Active, []byte("bridge/x")); err != nil {
		t.Fatal(err)
	}
	if err := la.Node(0).RM.WaitForGroup(laGrp, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := la.Node(0).RM.JoinGroup(laGrp, bridge); err != nil {
		t.Fatal(err)
	}
	if err := la.Node(0).RM.WaitSynced(laGrp, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := la.AddGateway(1, ""); err != nil {
		t.Fatal(err)
	}
	laRef, err := la.PublishIOR("IDL:X:1.0", []byte("bridge/x"))
	if err != nil {
		t.Fatal(err)
	}

	c, err := thinclient.Dial(laRef, thinclient.Config{CallTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for i := 1; i <= 6; i++ {
		if i == 3 {
			// The NY gateway the bridge is connected to dies; the
			// bridge's enhanced client lets it fail over without
			// duplicating operations.
			_ = ny.Gateways()[0].Close()
		}
		r, err := c.Call("add", int64Args(1))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := r.ReadLongLong(); got != int64(i) {
			t.Fatalf("call %d = %d, want %d", i, got, i)
		}
	}
}

func TestDomainConfigValidation(t *testing.T) {
	if _, err := domain.New(domain.Config{Nodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	ids := domain.MemberIDs("v", 2)
	if _, err := domain.New(domain.Config{Members: ids, Local: []memnet.NodeID{"v/elsewhere"}}); err == nil {
		t.Fatal("local node outside the membership accepted")
	}
}

// TestOneRingFromTwoPartialDomains builds one four-member ring out of
// two Domain values that each host two of the members on a shared
// network — the shape of a multi-process deployment. The object is
// deployed through one domain's managers and invoked through a gateway
// on the other: the group directory spans the ring, while each Domain
// manages only the processors it hosts.
func TestOneRingFromTwoPartialDomains(t *testing.T) {
	net := memnet.New()
	members := domain.MemberIDs("split", 4)
	halves := make([]*domain.Domain, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range halves {
		wg.Add(1)
		go func() { // together, like processes of one deployment
			defer wg.Done()
			halves[i], errs[i] = domain.New(domain.Config{
				Name:                 "split",
				Members:              members,
				Local:                members[2*i : 2*i+2],
				Totem:                fastTotem(),
				GatewayInvokeTimeout: 5 * time.Second,
				TransportFactory: func(id memnet.NodeID) (totem.Transport, error) {
					return net.Attach(id)
				},
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("half %d: %v", i, err)
		}
		t.Cleanup(halves[i].Close)
	}
	a, b := halves[0], halves[1]
	if a.Nodes() != 2 || b.Nodes() != 2 || a.Node(0).ID != members[0] || b.Node(0).ID != members[2] {
		t.Fatalf("local processors: a=%d from %s, b=%d from %s", a.Nodes(), a.Node(0).ID, b.Nodes(), b.Node(0).ID)
	}
	// Both halves are in one ring before anything is deployed.
	deadline := time.Now().Add(10 * time.Second)
	for len(b.Node(0).Totem.Members()) != len(members) || len(a.Node(0).Totem.Members()) != len(members) {
		if time.Now().After(deadline) {
			t.Fatalf("ring never merged: a sees %v, b sees %v", a.Node(0).Totem.Members(), b.Node(0).Totem.Members())
		}
		time.Sleep(5 * time.Millisecond)
	}

	const grp replication.GroupID = 700
	key := []byte("split/adder")
	err := a.Manager().CreateReplicatedObject(grp, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 2,
		MinReplicas:     1,
		ObjectKey:       key,
	}, func() (replication.Application, error) { return &adderApp{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	// a's managers can place only on what a hosts.
	if _, err := a.Manager().Grow(grp); !errors.Is(err, ftmgmt.ErrNoHosts) {
		t.Fatalf("grow beyond the local processors: err = %v, want ErrNoHosts", err)
	}
	if err := b.Node(0).RM.WaitForMembers(grp, 2, 5*time.Second); err != nil {
		t.Fatalf("b never learned the group a deployed: %v", err)
	}
	if _, err := b.AddGateway(0, ""); err != nil {
		t.Fatal(err)
	}
	ref, err := b.PublishIOR("IDL:X:1.0", key)
	if err != nil {
		t.Fatal(err)
	}
	obj, conn, err := orb.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	for i := 1; i <= 5; i++ {
		r, err := obj.Call("add", int64Args(1), orb.InvokeOptions{})
		if err != nil {
			t.Fatalf("call %d through b's gateway to a's replicas: %v", i, err)
		}
		if got := r.ReadLongLong(); got != int64(i) {
			t.Fatalf("call %d = %d", i, got)
		}
	}
}

func TestBridgeAppStateIsEmpty(t *testing.T) {
	b := domain.NewBridgeApp(ior.New("IDL:X:1.0", ior.IIOPProfile{Host: "h", Port: 1}), nil, 0)
	st, err := b.State()
	if err != nil || st != nil {
		t.Fatalf("state = %v, %v", st, err)
	}
	if err := b.SetState(nil); err != nil {
		t.Fatal(err)
	}
}

func TestPublishedIORCarriesDomainComponents(t *testing.T) {
	d := newDomain(t, "tagged", 2)
	if _, err := d.AddGateway(0, ""); err != nil {
		t.Fatal(err)
	}
	ref, err := d.PublishIOR("IDL:X:1.0", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ior.Parse(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := parsed.ORBType(); !ok || v != ior.ORBTypeEternalGW {
		t.Fatalf("orb type = %#x, %v", v, ok)
	}
	if name, ok := parsed.FTDomain(); !ok || name != "tagged" {
		t.Fatalf("domain tag = %q, %v", name, ok)
	}
}

func TestRemoveGatewayRepublishesAndReleasesMembership(t *testing.T) {
	updates := make(chan ior.Ref, 8)
	d, err := domain.New(domain.Config{
		Name:                 "rgw",
		Nodes:                3,
		Totem:                fastTotem(),
		GatewayInvokeTimeout: 5 * time.Second,
		OnIORUpdate: func(objectKey []byte, ref ior.Ref) {
			if string(objectKey) != "app/adder" {
				t.Errorf("update for unexpected key %q", objectKey)
			}
			updates <- ref
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	err = d.Manager().CreateReplicatedObject(77, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 2,
		MinReplicas:     1,
		ObjectKey:       []byte("app/adder"),
	}, func() (replication.Application, error) { return &adderApp{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	gwA, err := d.AddGateway(1, "")
	if err != nil {
		t.Fatal(err)
	}
	gwB, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PublishIOR("IDL:eternalgw/Adder:1.0", []byte("app/adder")); err != nil {
		t.Fatal(err)
	}
	// Adding a gateway after PublishIOR republishes with both profiles.
	gwC, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}
	ref := <-updates
	profiles, err := ref.IIOPProfiles()
	if err != nil || len(profiles) != 3 {
		t.Fatalf("profiles after add = %d (%v), want 3", len(profiles), err)
	}

	// Removing one republishes without its profile before it drains.
	removedAddr := gwA.Addr()
	if err := d.RemoveGateway(gwA, time.Second); err != nil {
		t.Fatal(err)
	}
	ref = <-updates
	profiles, err = ref.IIOPProfiles()
	if err != nil || len(profiles) != 2 {
		t.Fatalf("profiles after remove = %d (%v), want 2", len(profiles), err)
	}
	for _, p := range profiles {
		if p.Addr() == removedAddr {
			t.Fatalf("removed gateway %s still published", removedAddr)
		}
	}

	// Node 1 hosted only gwA: its client membership in the gateway group
	// is released. Node 2 still hosts gwC, so it stays.
	deadline := time.Now().Add(5 * time.Second)
	for {
		members := d.Node(0).RM.Members(domain.DefaultGatewayGroup)
		var hasN1, hasN2 bool
		for _, m := range members {
			if m == d.Node(1).ID {
				hasN1 = true
			}
			if m == d.Node(2).ID {
				hasN2 = true
			}
		}
		if !hasN1 && hasN2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway group members = %v, want %s out and %s in",
				members, d.Node(1).ID, d.Node(2).ID)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Removing a foreign gateway is rejected.
	if err := d.RemoveGateway(gwA, time.Second); err == nil {
		t.Fatal("second remove of the same gateway succeeded")
	}
	_ = gwB
	if err := d.RemoveGateway(gwC, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Gateways()); got != 1 {
		t.Fatalf("gateways left = %d, want 1", got)
	}
}

// bridgedAdder deploys figure 1's two domains for the bridging tests:
// New York hosts a replicated adder on p00 and p01 behind one
// gateway, and Los Angeles, four processors with its gateway on p03, a
// bridge group of two to it. It returns both domains, the bridge group,
// and a plain client's call of add(10) through LA's gateway.
func bridgedAdder(t *testing.T) (ny, la *domain.Domain, bridge replication.GroupID, add func() int64) {
	t.Helper()
	ny = newDomain(t, "new-york", 3)
	la = newDomain(t, "los-angeles", 4)
	const nyGrp replication.GroupID = 90
	serverKey := []byte("trading/exchange")
	err := ny.Manager().CreateReplicatedObject(nyGrp, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 2,
		MinReplicas:     1,
		ObjectKey:       serverKey,
	}, func() (replication.Application, error) { return &adderApp{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ny.AddGateway(2, ""); err != nil {
		t.Fatal(err)
	}
	nyRef, err := ny.PublishIOR("IDL:Trading/Exchange:1.0", serverKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := la.AddGateway(3, ""); err != nil {
		t.Fatal(err)
	}
	bridge = 91
	bridgeKey := []byte("bridge/to-ny")
	err = la.Manager().CreateReplicatedObject(bridge, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 2,
		MinReplicas:     1,
		ObjectKey:       bridgeKey,
	}, func() (replication.Application, error) {
		b := domain.NewBridgeApp(nyRef, []byte("la-bridge-91"), 5*time.Second)
		t.Cleanup(b.Close)
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	laRef, err := la.PublishIOR("IDL:Trading/Exchange:1.0", bridgeKey)
	if err != nil {
		t.Fatal(err)
	}
	// Each gateway's processor knows the group it resolves to.
	if err := ny.Node(2).RM.WaitForMembers(nyGrp, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := la.Node(3).RM.WaitForMembers(bridge, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	obj, conn, err := orb.Resolve(laRef)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return ny, la, bridge, func() int64 {
		t.Helper()
		r, err := obj.Call("add", int64Args(10), orb.InvokeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return r.ReadLongLong()
	}
}

// checkBridgedTotals makes five calls of add(10) and fails unless they
// read from+10 onwards: a call lost or run twice across the domains is
// off by ten, and one a bridge replica numbered itself is answered, under
// the group's shared client identifier, with an older call's record.
func checkBridgedTotals(t *testing.T, add func() int64, from int64) {
	t.Helper()
	var got, want []int64
	for i := int64(1); i <= 5; i++ {
		got, want = append(got, add()), append(want, from+10*i)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("totals %v, want %v", got, want)
	}
}

// TestGrownBridgeAnswersCurrentCalls grows a bridge group between calls:
// the joined replica forwards each call under the identifier of the
// invocation it executes, as the older replicas do (figure 6), so the
// remote domain sees one operation per call and no stale reply. There
// each call executes once at a replica, and the copies beyond the first
// are answered from the gateway's record or suppressed as duplicates.
func TestGrownBridgeAnswersCurrentCalls(t *testing.T) {
	ny, la, grp, add := bridgedAdder(t)
	checkBridgedTotals(t, add, 0)
	if _, err := la.Manager().Grow(grp); err != nil {
		t.Fatal(err)
	}
	nyStats := func() (executed, collapsed uint64) {
		st := ny.Node(0).RM.Stats()
		return st.InvocationsExecuted, st.DuplicateInvocations + ny.Gateways()[0].Stats().AnsweredFromCache
	}
	executed, collapsed := nyStats()
	checkBridgedTotals(t, add, 50)
	deadline := time.Now().Add(5 * time.Second)
	for {
		e, c := nyStats()
		if e-executed == 5 && c-collapsed >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("at a New York replica, 5 calls of three bridge replicas executed %d times and collapsed %d copies, want 5 and at least 10", e-executed, c-collapsed)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestartedBridgeAnswersCurrentCalls crashes the processor of one
// bridge replica, restarts it and places a fresh replica there.
func TestRestartedBridgeAnswersCurrentCalls(t *testing.T) {
	_, la, grp, add := bridgedAdder(t)
	checkBridgedTotals(t, add, 0)
	rm := la.Node(3).RM
	victim := rm.Members(grp)[0]
	idx := -1
	for i := 0; i < la.Nodes(); i++ {
		if la.Node(i).ID == victim {
			idx = i
		}
	}
	back := la.Node(idx)
	syncs := back.RM.Stats().MembershipSyncs
	la.CrashNode(idx)
	deadline := time.Now().Add(5 * time.Second)
	for len(rm.Members(grp)) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("members = %v", rm.Members(grp))
		}
		time.Sleep(5 * time.Millisecond)
	}
	la.RestartNode(idx)
	// The restarted processor adopts the survivors' directory, closing
	// its old replica, before anything is placed on it.
	for st := back.RM.Stats(); len(back.Totem.Members()) != la.Nodes() || st.MembershipSyncs == syncs || st.DirectoryAwaiting; st = back.RM.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("ring = %v, directory syncs %d, awaiting %v", back.Totem.Members(), st.MembershipSyncs, st.DirectoryAwaiting)
		}
		time.Sleep(5 * time.Millisecond)
	}
	v, err := la.Manager().Grow(grp)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(v.Members, victim) {
		t.Fatalf("the fresh replica went to %v, not to the restarted %s", v.Members, victim)
	}
	checkBridgedTotals(t, add, 50)
}
