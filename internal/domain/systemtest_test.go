package domain_test

import (
	"sync"
	"testing"
	"time"

	"eternalgw/internal/domain"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/memnet"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/thinclient"
	"eternalgw/internal/totem"
	"eternalgw/internal/udpnet"
)

// TestFullSystemUnderCompoundFailures is the repository's capstone
// integration test: a 6-processor domain, a triple-replicated server
// maintained by the resource manager, three redundant gateways, and
// several enhanced clients driving load while, mid-run, a server
// replica's processor crashes, a gateway dies, and the crashed processor
// comes back. The invariant under all of it: every acknowledged
// operation executed exactly once, and the surviving replicas agree.
func TestFullSystemUnderCompoundFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("compound-failure system test skipped in -short mode")
	}
	d := newDomain(t, "capstone", 6)

	const grp replication.GroupID = 500
	key := []byte("capstone/adder")
	var (
		mu   sync.Mutex
		apps []*adderApp
	)
	err := d.Manager().CreateReplicatedObject(grp, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 3,
		MinReplicas:     3,
		ObjectKey:       key,
	}, func() (replication.Application, error) {
		mu.Lock()
		defer mu.Unlock()
		app := &adderApp{}
		apps = append(apps, app)
		return app, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Manager().Monitor(20 * time.Millisecond)

	for i := 0; i < 3; i++ {
		if _, err := d.AddGateway(3+i, ""); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := d.PublishIOR("IDL:Capstone/Adder:1.0", key)
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 3, 40
	var (
		wg    sync.WaitGroup
		ackMu sync.Mutex
		acked int64
	)
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := thinclient.Dial(ref, thinclient.Config{CallTimeout: 3 * time.Second})
			if err != nil {
				errCh <- err
				return
			}
			defer func() { _ = cl.Close() }()
			for i := 0; i < perClient; i++ {
				r, err := cl.Call("add", int64Args(1))
				if err != nil {
					errCh <- err
					return
				}
				if r.ReadLongLong() <= 0 {
					errCh <- err
					return
				}
				ackMu.Lock()
				acked++
				ackMu.Unlock()
			}
		}()
	}

	// The fault storm, while the clients run.
	victim := -1
	members := d.Node(5).RM.Members(grp)
	for i := 0; i < d.Nodes(); i++ {
		if d.Node(i).ID == members[0] {
			victim = i
			break
		}
	}
	time.Sleep(30 * time.Millisecond)
	d.CrashNode(victim) // a server replica's processor dies
	time.Sleep(50 * time.Millisecond)
	_ = d.Gateways()[0].Close() // the first gateway dies
	time.Sleep(100 * time.Millisecond)
	d.RestartNode(victim) // the processor returns (rejoins the ring)

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if acked != clients*perClient {
		t.Fatalf("acked = %d, want %d", acked, clients*perClient)
	}

	// The resource manager restores three replicas; all live replicas
	// converge on exactly the acknowledged total.
	deadline := time.Now().Add(10 * time.Second)
	for {
		live := d.Node(5).RM.Members(grp)
		if len(live) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication level never restored: %v", live)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Verify totals via a fresh client (the authoritative view).
	cl, err := thinclient.Dial(ref, thinclient.Config{CallTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	r, err := cl.Call("get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != int64(clients*perClient) {
		t.Fatalf("server total = %d, want %d: operations lost or duplicated through the fault storm", got, clients*perClient)
	}
}

// TestDomainOverUDPTransport runs the full stack — totem ring,
// replication, gateway, external client — with the ring's datagrams on
// real UDP sockets instead of the simulated network.
func TestDomainOverUDPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP transport test skipped in -short mode")
	}
	const nodes = 3
	registry, err := udpnet.LoopbackRegistry(domain.MemberIDs("udp", nodes)...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := domain.New(domain.Config{
		Name:  "udp",
		Nodes: nodes,
		TransportFactory: func(id memnet.NodeID) (totem.Transport, error) {
			return udpnet.Listen(id, registry)
		},
		GatewayInvokeTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	const grp replication.GroupID = 600
	key := []byte("udp/adder")
	err = d.Manager().CreateReplicatedObject(grp, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 2,
		MinReplicas:     1,
		ObjectKey:       key,
	}, func() (replication.Application, error) { return &adderApp{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddGateway(2, ""); err != nil {
		t.Fatal(err)
	}
	ref, err := d.PublishIOR("IDL:X:1.0", key)
	if err != nil {
		t.Fatal(err)
	}
	obj, conn, err := orb.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	for i := 1; i <= 10; i++ {
		r, err := obj.Call("add", int64Args(1), orb.InvokeOptions{})
		if err != nil {
			t.Fatalf("call %d over UDP ring: %v", i, err)
		}
		if got := r.ReadLongLong(); got != int64(i) {
			t.Fatalf("call %d = %d", i, got)
		}
	}
}
