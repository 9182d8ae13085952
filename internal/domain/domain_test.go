package domain_test

import (
	"errors"
	"fmt"
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
	ny := newDomain(t, "new-york", 3)
	la := newDomain(t, "los-angeles", 3)

	// New York hosts the replicated server.
	const nyGrp replication.GroupID = 70
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

	// Los Angeles hosts a replicated bridge to New York.
	const laGrp replication.GroupID = 71
	bridgeKey := []byte("bridge/to-ny")
	err = la.Manager().CreateReplicatedObject(laGrp, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 2,
		MinReplicas:     1,
		ObjectKey:       bridgeKey,
	}, func() (replication.Application, error) {
		return domain.NewBridgeApp(nyRef, []byte("la-bridge-01"), 5*time.Second), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := la.AddGateway(2, ""); err != nil {
		t.Fatal(err)
	}
	laRef, err := la.PublishIOR("IDL:Trading/Exchange:1.0", bridgeKey)
	if err != nil {
		t.Fatal(err)
	}

	// The Santa Barbara customer: a plain unreplicated IIOP client that
	// knows only the LA reference.
	obj, conn, err := orb.Resolve(laRef)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	for i := 1; i <= 5; i++ {
		r, err := obj.Call("add", int64Args(10), orb.InvokeOptions{})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := r.ReadLongLong(); got != int64(i*10) {
			t.Fatalf("call %d = %d, want %d (lost or duplicated across domains)", i, got, i*10)
		}
	}
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
