// Package eternalgw's repository-root benchmarks: the timings of the
// experiments in DESIGN.md's index (E1-E12), whose claims
// internal/experiments' tests assert. Where the throughput suite already
// times an experiment's path, its row is the timing: E10's is
// BenchmarkGatewayMultiClient, and E11's concurrent clients at r=3 are
// BenchmarkGatewayReplicationDegree/r=3. E9's recovery time is the
// reference benchmark's outage_primary_ms. Scenario benchmarks (failover,
// state transfer) run one full scenario per iteration; invocation
// benchmarks amortize setup across b.N calls.
//
// Run with: go test -run xxx -bench BenchmarkE -benchmem
package eternalgw_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/domain"
	"eternalgw/internal/experiments"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/giop"
	"eternalgw/internal/obs"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/thinclient"
	"eternalgw/internal/totem"
)

const (
	benchGroup replication.GroupID = 100
	benchKey                       = "bench/register"
	benchType                      = "IDL:eternalgw/Register:1.0"
)

func benchDomain(b *testing.B, nodes int) *domain.Domain {
	b.Helper()
	d, err := domain.New(domain.Config{
		Name:  "bench",
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
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	return d
}

func benchDeploy(b *testing.B, d *domain.Domain, style replication.Style, replicas int) []*experiments.RegisterApp {
	b.Helper()
	var (
		mu   sync.Mutex
		apps []*experiments.RegisterApp
	)
	err := d.Manager().CreateReplicatedObject(benchGroup, ftmgmt.Properties{
		Style:           style,
		InitialReplicas: replicas,
		MinReplicas:     replicas,
		ObjectKey:       []byte(benchKey),
		TypeID:          benchType,
	}, func() (replication.Application, error) {
		mu.Lock()
		defer mu.Unlock()
		app := &experiments.RegisterApp{}
		apps = append(apps, app)
		return app, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return apps
}

// clientRM returns a client-only gateway-group member on node i.
func clientRM(b *testing.B, d *domain.Domain, i int) *replication.Mechanisms {
	b.Helper()
	rm := d.Node(i).RM
	if err := rm.JoinGroup(domain.DefaultGatewayGroup, nil); err != nil {
		b.Fatal(err)
	}
	if err := rm.WaitSynced(domain.DefaultGatewayGroup, 10*time.Second); err != nil {
		b.Fatal(err)
	}
	return rm
}

func rmInvoke(rm *replication.Mechanisms, reqID uint32, op string, args []byte) error {
	_, err := rm.Invoke(domain.DefaultGatewayGroup, 1, benchGroup,
		replication.OperationID{ChildSeq: reqID},
		giop.Request{RequestID: reqID, ResponseExpected: true, ObjectKey: []byte(benchKey), Operation: op, Args: args},
		10*time.Second)
	return err
}

// BenchmarkE1MultiDomain measures one invocation crossing two fault
// tolerance domains (figure 1's full path).
func BenchmarkE1MultiDomain(b *testing.B) {
	ny := benchDomain(b, 3)
	benchDeploy(b, ny, replication.Active, 2)
	if _, err := ny.AddGateway(2, ""); err != nil {
		b.Fatal(err)
	}
	nyRef, err := ny.PublishIOR(benchType, []byte(benchKey))
	if err != nil {
		b.Fatal(err)
	}
	la, err := domain.New(domain.Config{Name: "bench-la", Nodes: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(la.Close)
	err = la.Manager().CreateReplicatedObject(200, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 1,
		MinReplicas:     1,
		ObjectKey:       []byte("bench/bridge"),
	}, func() (replication.Application, error) {
		return domain.NewBridgeApp(nyRef, []byte("bench-bridge"), 10*time.Second), nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := la.AddGateway(1, ""); err != nil {
		b.Fatal(err)
	}
	laRef, err := la.PublishIOR(benchType, []byte("bench/bridge"))
	if err != nil {
		b.Fatal(err)
	}
	obj, conn, err := orb.Resolve(laRef)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = conn.Close() })

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Call("ops", nil, orb.InvokeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// e2Sizes are E2's echo payloads.
var e2Sizes = []struct {
	name string
	n    int
}{{"16B", 16}, {"256B", 256}, {"4KiB", 4 << 10}}

// BenchmarkE2InfrastructureOverhead measures one invocation through the
// fault tolerance infrastructure (3 active replicas) against the plain
// ORB baseline benchmark below, per payload size.
func BenchmarkE2InfrastructureOverhead(b *testing.B) {
	for _, size := range e2Sizes {
		b.Run(size.name, func(b *testing.B) {
			d := benchDomain(b, 3)
			benchDeploy(b, d, replication.Active, 3)
			rm := clientRM(b, d, 2)
			args := experiments.OctetSeqArg(make([]byte, size.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rmInvoke(rm, uint32(i+1), "echo", args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2PlainORBBaseline is E2's baseline: the same invocation on
// an unreplicated ORB over TCP.
func BenchmarkE2PlainORBBaseline(b *testing.B) {
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	srv.Register([]byte("plain"), &experiments.RegisterApp{})
	conn, err := orb.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = conn.Close() })
	for _, size := range e2Sizes {
		b.Run(size.name, func(b *testing.B) {
			args := experiments.OctetSeqArg(make([]byte, size.n))
			for i := 0; i < b.N; i++ {
				if _, err := conn.Call([]byte("plain"), "echo", args, orb.InvokeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3DuplicateSuppression measures an invocation against 3
// active replicas including the suppression of the 2 duplicate
// responses (figure 3).
func BenchmarkE3DuplicateSuppression(b *testing.B) {
	d := benchDomain(b, 4)
	benchDeploy(b, d, replication.Active, 3)
	gw, err := d.AddGateway(3, "")
	if err != nil {
		b.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = conn.Close() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Call([]byte(benchKey), "ops", nil, orb.InvokeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := d.Node(3).RM.Stats()
	b.ReportMetric(float64(st.DuplicateResponses)/float64(b.N), "dup-suppressed/op")
}

// BenchmarkE4MessageEncapsulation measures encoding+decoding the figure
// 4 multicast form (FT header wrapping an IIOP request).
func BenchmarkE4MessageEncapsulation(b *testing.B) {
	req := giop.Request{
		RequestID:        7,
		ResponseExpected: true,
		ObjectKey:        []byte(benchKey),
		Operation:        "echo",
		Args:             experiments.OctetSeqArg(make([]byte, 256)),
	}
	wire, err := giop.EncodeRequest(cdr.BigEndian, req)
	if err != nil {
		b.Fatal(err)
	}
	msg := replication.Message{
		Header: replication.Header{
			Kind:     replication.KindInvocation,
			ClientID: 42,
			SrcGroup: 1,
			DstGroup: benchGroup,
			Op:       replication.OperationID{ParentTS: 123456, ChildSeq: 7},
		},
		Payload: giop.Marshal(wire),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := replication.Encode(msg)
		if _, err := replication.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(replication.Encode(msg))))
}

// BenchmarkE5GatewayLoops measures one full request through the gateway
// (figure 5's inbound and outbound loops plus the TCP edge), and the same
// invocation issued from the gateway's node straight into the
// replication mechanisms: the difference is what the gateway adds.
func BenchmarkE5GatewayLoops(b *testing.B) {
	b.Run("gateway", func(b *testing.B) {
		d := benchDomain(b, 3)
		benchDeploy(b, d, replication.Active, 2)
		gw, err := d.AddGateway(2, "")
		if err != nil {
			b.Fatal(err)
		}
		conn, err := orb.Dial(gw.Addr())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = conn.Close() })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conn.Call([]byte(benchKey), "ops", nil, orb.InvokeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("no-gateway", func(b *testing.B) {
		d := benchDomain(b, 3)
		benchDeploy(b, d, replication.Active, 2)
		rm := clientRM(b, d, 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rmInvoke(rm, uint32(i+1), "ops", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5GatewayLoopsInstrumented is E5 with the observability
// subsystem in its production-default posture: metrics registered (the
// counters the datapath increments are read only at scrape time) and
// the tracer disabled (nil). Comparing against
// BenchmarkE5GatewayLoops/gateway bounds the overhead of carrying the
// instrumentation; the acceptance bar is under 5% on round-trip
// throughput.
func BenchmarkE5GatewayLoopsInstrumented(b *testing.B) {
	d, err := domain.New(domain.Config{
		Name:  "bench",
		Nodes: 3,
		Totem: totem.Config{
			IdleHold:        100 * time.Microsecond,
			TokenRetransmit: 10 * time.Millisecond,
			FailTimeout:     80 * time.Millisecond,
			GatherTimeout:   20 * time.Millisecond,
		},
		GatewayInvokeTimeout: 10 * time.Second,
		Metrics:              obs.NewRegistry(),
		Tracer:               nil, // disabled: the hot path pays one nil check per hop
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	benchDeploy(b, d, replication.Active, 2)
	gw, err := d.AddGateway(2, "")
	if err != nil {
		b.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = conn.Close() })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Call([]byte(benchKey), "ops", nil, orb.InvokeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6OperationIdentifiers measures nested invocations, whose
// operation identifiers (figure 6) are derived from the parent's totem
// timestamp at every replica.
func BenchmarkE6OperationIdentifiers(b *testing.B) {
	d := benchDomain(b, 3)
	benchDeploy(b, d, replication.Active, 1)

	const frontGrp replication.GroupID = 120
	rm0 := d.Node(0).RM
	if err := rm0.CreateGroup(frontGrp, replication.Active, []byte("bench/front")); err != nil {
		b.Fatal(err)
	}
	if err := rm0.WaitForGroup(frontGrp, 10*time.Second); err != nil {
		b.Fatal(err)
	}
	h := rm0.Handle(frontGrp)
	relay := orbServantFunc(func(op string, args *cdr.Reader, reply *cdr.Writer) error {
		r, err := h.Invoke([]byte(benchKey), "ops", nil, 10*time.Second)
		if err != nil {
			return err
		}
		reply.WriteLongLong(r.ReadLongLong())
		return r.Err()
	})
	if err := rm0.JoinGroup(frontGrp, relay); err != nil {
		b.Fatal(err)
	}
	if err := rm0.WaitSynced(frontGrp, 10*time.Second); err != nil {
		b.Fatal(err)
	}
	rm := clientRM(b, d, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := rm.Invoke(domain.DefaultGatewayGroup, 1, frontGrp,
			replication.OperationID{ChildSeq: uint32(i + 1)},
			giop.Request{RequestID: uint32(i + 1), ResponseExpected: true, ObjectKey: []byte("bench/front"), Operation: "relay"},
			10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// orbServantFunc adapts a function to replication.Application for
// stateless benchmark servants.
type orbServantFunc func(op string, args *cdr.Reader, reply *cdr.Writer) error

func (f orbServantFunc) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	return f(op, args, reply)
}
func (f orbServantFunc) State() ([]byte, error) { return nil, nil }
func (f orbServantFunc) SetState([]byte) error  { return nil }

// BenchmarkE7SingleGatewayFailure runs one full section 3.4 scenario per
// iteration: requests through a single gateway, gateway crash, abandoned
// requests, recovery, duplicating resend.
func BenchmarkE7SingleGatewayFailure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := benchDomain(b, 3)
		benchDeploy(b, d, replication.Active, 1)
		gw, err := d.AddGateway(2, "")
		if err != nil {
			b.Fatal(err)
		}
		conn, err := orb.Dial(gw.Addr())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		if _, err := conn.Call([]byte(benchKey), "append", experiments.OctetSeqArg([]byte("x")), orb.InvokeOptions{RequestID: 1}); err != nil {
			b.Fatal(err)
		}
		_ = gw.Close()
		_, _ = conn.Call([]byte(benchKey), "ops", nil, orb.InvokeOptions{RequestID: 2, Timeout: 100 * time.Millisecond})
		gw2, err := d.AddGateway(2, "")
		if err != nil {
			b.Fatal(err)
		}
		conn2, err := orb.Dial(gw2.Addr())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn2.Call([]byte(benchKey), "append", experiments.OctetSeqArg([]byte("x")), orb.InvokeOptions{RequestID: 1}); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		_ = conn.Close()
		_ = conn2.Close()
		d.Close()
		b.StartTimer()
	}
}

// BenchmarkE8GatewayFailover measures one enhanced-client failover: the
// connected gateway dies and the next call transparently re-routes.
func BenchmarkE8GatewayFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := benchDomain(b, 3)
		benchDeploy(b, d, replication.Active, 1)
		if _, err := d.AddGateway(1, ""); err != nil {
			b.Fatal(err)
		}
		if _, err := d.AddGateway(2, ""); err != nil {
			b.Fatal(err)
		}
		ref, err := d.PublishIOR(benchType, []byte(benchKey))
		if err != nil {
			b.Fatal(err)
		}
		c, err := thinclient.Dial(ref, thinclient.Config{CallTimeout: 2 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Call("ops", nil); err != nil {
			b.Fatal(err)
		}
		_ = d.Gateways()[0].Close()
		b.StartTimer()

		// The timed region is the failover itself: detect the dead
		// gateway, reconnect to the next profile, reissue, answer.
		if _, err := c.Call("ops", nil); err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		_ = c.Close()
		d.Close()
		b.StartTimer()
	}
}

// BenchmarkE9ReplicationStyles measures fault-free invocations per
// style; run with -bench 'E9' to compare the three sub-benchmarks.
func BenchmarkE9ReplicationStyles(b *testing.B) {
	for _, style := range []replication.Style{replication.Active, replication.WarmPassive, replication.ColdPassive} {
		b.Run(style.String(), func(b *testing.B) {
			d := benchDomain(b, 3)
			benchDeploy(b, d, style, 2)
			rm := clientRM(b, d, 2)
			args := experiments.OctetSeqArg([]byte("x"))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rmInvoke(rm, uint32(i+1), "append", args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12StateTransfer runs one state transfer per iteration, per
// state size: a fresh replica joins and synchronizes.
func BenchmarkE12StateTransfer(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			d := benchDomain(b, 3)
			benchDeploy(b, d, replication.Active, 1)
			rm := clientRM(b, d, 2)
			if err := rmInvoke(rm, 1, "set", experiments.OctetSeqArg(make([]byte, size))); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				joiner := &experiments.RegisterApp{}
				rmJoin := d.Node(1).RM
				if err := rmJoin.JoinGroup(benchGroup, joiner); err != nil {
					b.Fatal(err)
				}
				if err := rmJoin.WaitSynced(benchGroup, 10*time.Second); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := rmJoin.LeaveGroup(benchGroup); err != nil {
					b.Fatal(err)
				}
				waitMembers(b, rmJoin, benchGroup, 1)
				b.StartTimer()
			}
		})
	}
}

func waitMembers(b *testing.B, rm *replication.Mechanisms, g replication.GroupID, want int) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(rm.Members(g)) != want {
		if time.Now().After(deadline) {
			b.Fatalf("members = %v", rm.Members(g))
		}
		time.Sleep(time.Millisecond)
	}
}
