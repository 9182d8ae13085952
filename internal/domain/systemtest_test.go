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
	"eternalgw/internal/giop"
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

// sizedApp echoes, and answers "blow" with a result of the size asked
// for, counting every execution.
type sizedApp struct {
	adderApp
}

func (a *sizedApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.total++
	switch op {
	case "echo":
		reply.WriteOctetSeq(args.ReadOctetSeq())
	case "blow":
		reply.WriteOctetSeq(make([]byte, args.ReadULong()))
	default:
		a.total--
		return fmt.Errorf("sizedApp: unknown op %q", op)
	}
	return args.Err()
}

// TestOversizeMessageDoesNotWedgeUDPDomain: a message no UDP datagram can
// carry is refused where it can still be refused — the request at the
// gateway, from its GIOP header; the reply at the replicas, each sending
// the same exception in its place — and is never ordered. Before the
// transport stated its largest datagram, such a message took its place in
// the total order, was refused by the kernel at every transmission and
// retransmitted for ever: the call timed out, and so did every call
// after it.
func TestOversizeMessageDoesNotWedgeUDPDomain(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP transport test skipped in -short mode")
	}
	for _, mode := range []struct {
		name     string
		ordering totem.OrderingMode
	}{{"ring", totem.OrderingRing}, {"leader", totem.OrderingLeader}} {
		t.Run(mode.name, func(t *testing.T) {
			const nodes = 4
			registry, err := udpnet.LoopbackRegistry(domain.MemberIDs("big", nodes)...)
			if err != nil {
				t.Fatal(err)
			}
			var eps []*udpnet.Endpoint
			txErrors := func() (n uint64) {
				for _, ep := range eps {
					n += ep.Stats().TxErrors
				}
				return n
			}
			d, err := domain.New(domain.Config{
				Name:  "big",
				Nodes: nodes,
				Totem: totem.Config{Ordering: mode.ordering},
				TransportFactory: func(id memnet.NodeID) (totem.Transport, error) {
					ep, err := udpnet.Listen(id, registry)
					if err == nil {
						eps = append(eps, ep)
					}
					return ep, err
				},
				GatewayInvokeTimeout: 2 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Close)

			const grp replication.GroupID = 700
			key := []byte("big/echo")
			var (
				mu   sync.Mutex
				apps []*sizedApp
			)
			err = d.Manager().CreateReplicatedObject(grp, ftmgmt.Properties{
				Style:           replication.Active,
				InitialReplicas: 3,
				MinReplicas:     3,
				ObjectKey:       key,
			}, func() (replication.Application, error) {
				mu.Lock()
				defer mu.Unlock()
				apps = append(apps, &sizedApp{})
				return apps[len(apps)-1], nil
			})
			if err != nil {
				t.Fatal(err)
			}
			gw, err := d.AddGateway(3, "")
			if err != nil {
				t.Fatal(err)
			}
			conn, err := orb.Dial(gw.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = conn.Close() }()

			octets := func(n int) []byte {
				w := cdr.NewWriter(cdr.BigEndian)
				w.WriteOctetSeq(make([]byte, n))
				return w.Bytes()
			}
			executed := 0
			small := func(when string, n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					start := time.Now()
					if _, err := conn.Call(key, "echo", octets(64), orb.InvokeOptions{Timeout: 5 * time.Second}); err != nil {
						t.Fatalf("64 B echo %d %s: %v after %v", i, when, err, time.Since(start))
					}
					executed++
				}
			}
			// refused makes a call that must be answered IMP_LIMIT, long
			// before the gateway's invoke timeout.
			refused := func(what, op string, args []byte, minor, completed uint32) {
				t.Helper()
				start := time.Now()
				_, err := conn.Call(key, op, args, orb.InvokeOptions{Timeout: 5 * time.Second})
				var sys *orb.SystemException
				if !errors.As(err, &sys) || sys.RepoID != "IDL:omg.org/CORBA/IMP_LIMIT:1.0" || sys.Minor != minor || sys.Completed != completed {
					t.Fatalf("%s: %v, want IMP_LIMIT minor %d completed %d", what, err, minor, completed)
				}
				if took := time.Since(start); took > time.Second {
					t.Errorf("%s was refused after %v: not fast", what, took)
				}
			}

			small("before anything oversize", 20)
			before := txErrors()

			refused("a 100 KiB request", "echo", octets(100<<10), 1, giop.CompletedNo)
			if got := gw.Stats().RequestsTooLarge; got != 1 {
				t.Errorf("gateway counted %d requests too large, want 1", got)
			}
			small("after the oversize request", 10)

			w := cdr.NewWriter(cdr.BigEndian)
			w.WriteULong(100 << 10)
			refused("a request for a 100 KiB reply", "blow", w.Bytes(), 2, giop.CompletedYes)
			executed++ // it ran; its result could not travel
			small("after the oversize reply", 10)

			if moved := txErrors() - before; moved != 0 {
				t.Errorf("the kernel refused %d datagrams: an oversize message reached the transport", moved)
			}
			// Exactly once: every replica ran what was answered — a call
			// returns on the first response, so the others may have one
			// execution to go — and the refused request nowhere.
			mu.Lock()
			defer mu.Unlock()
			if len(apps) != 3 {
				t.Fatalf("%d replicas, want 3", len(apps))
			}
			for i, app := range apps {
				count := func() int64 {
					app.mu.Lock()
					defer app.mu.Unlock()
					return app.total
				}
				for deadline := time.Now().Add(2 * time.Second); count() < int64(executed) && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				if got := count(); got != int64(executed) {
					t.Errorf("replica %d executed %d operations, want %d", i, got, executed)
				}
			}
		})
	}
}
