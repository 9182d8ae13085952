package experiments

import (
	"fmt"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/domain"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/giop"
	"eternalgw/internal/obs"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
)

const (
	expServerGroup replication.GroupID = 100
	expServerKey                       = "exp/register"
	expBridgeGroup replication.GroupID = 110
	expBridgeKey                       = "exp/bridge"
)

// runE1MultiDomain reproduces figure 1: the invocation paths available
// to a customer, from in-domain communication to the full Santa Barbara
// -> Los Angeles -> New York chain through two gateways and a bridge.
func runE1MultiDomain(cfg Config) (Result, error) {
	ops := cfg.ops(300, 30)

	ny, err := newDomain("new-york", 3)
	if err != nil {
		return Result{}, err
	}
	defer ny.Close()
	la, err := newDomain("los-angeles", 2)
	if err != nil {
		return Result{}, err
	}
	defer la.Close()

	if _, err := deployRegisters(ny, expServerGroup, expServerKey, replication.Active, 2); err != nil {
		return Result{}, err
	}
	if _, err := ny.AddGateway(2, ""); err != nil {
		return Result{}, err
	}
	nyRef, err := ny.PublishIOR("IDL:eternalgw/Register:1.0", []byte(expServerKey))
	if err != nil {
		return Result{}, err
	}

	// Path 1: replicated client inside the NY domain (figure 4c path).
	inDomain := &obs.Histogram{}
	rm := ny.Node(2).RM
	if err := rm.WaitSynced(domain.DefaultGatewayGroup, 5*time.Second); err != nil {
		return Result{}, err
	}
	for i := 1; i <= ops; i++ {
		start := time.Now()
		_, err := rm.Invoke(domain.DefaultGatewayGroup, 1, expServerGroup,
			replication.OperationID{ChildSeq: uint32(i)},
			giop.Request{RequestID: uint32(i), ResponseExpected: true, ObjectKey: []byte(expServerKey), Operation: "ops"},
			10*time.Second)
		if err != nil {
			return Result{}, fmt.Errorf("in-domain call %d: %w", i, err)
		}
		inDomain.Record(time.Since(start))
	}

	// Path 2: unreplicated client through the NY gateway (figure 3).
	viaGateway := &obs.Histogram{}
	obj, conn, err := orb.Resolve(nyRef)
	if err != nil {
		return Result{}, err
	}
	defer func() { _ = conn.Close() }()
	for i := 0; i < ops; i++ {
		start := time.Now()
		if _, err := obj.Call("ops", nil, orb.InvokeOptions{}); err != nil {
			return Result{}, fmt.Errorf("gateway call %d: %w", i, err)
		}
		viaGateway.Record(time.Since(start))
	}

	// Path 3: the full figure 1 chain — client -> LA gateway -> LA
	// bridge group -> NY gateway -> NY server group.
	bridgeFactory := func() (replication.Application, error) {
		return domain.NewBridgeApp(nyRef, []byte("exp-bridge"), 10*time.Second), nil
	}
	if err := la.Manager().CreateReplicatedObject(expBridgeGroup, bridgeProps(), bridgeFactory); err != nil {
		return Result{}, err
	}
	if _, err := la.AddGateway(1, ""); err != nil {
		return Result{}, err
	}
	laRef, err := la.PublishIOR("IDL:eternalgw/Register:1.0", []byte(expBridgeKey))
	if err != nil {
		return Result{}, err
	}
	twoDomains := &obs.Histogram{}
	obj2, conn2, err := orb.Resolve(laRef)
	if err != nil {
		return Result{}, err
	}
	defer func() { _ = conn2.Close() }()
	for i := 0; i < ops; i++ {
		start := time.Now()
		if _, err := obj2.Call("ops", nil, orb.InvokeOptions{}); err != nil {
			return Result{}, fmt.Errorf("two-domain call %d: %w", i, err)
		}
		twoDomains.Record(time.Since(start))
	}

	row := func(name string, h *obs.Histogram) []string {
		return []string{name, fmt.Sprint(h.Count()),
			h.Mean().Round(time.Microsecond).String(),
			h.Percentile(50).Round(time.Microsecond).String(),
			h.Percentile(99).Round(time.Microsecond).String()}
	}
	return Result{
		ID:      "E1",
		Title:   "Invocation paths across fault tolerance domains",
		Source:  "Figure 1",
		Headers: []string{"path", "ops", "mean", "p50", "p99"},
		Rows: [][]string{
			row("replicated client, same domain", inDomain),
			row("unreplicated client via 1 gateway", viaGateway),
			row("unreplicated client via 2 domains (bridge)", twoDomains),
		},
		Notes: []string{
			"expected shape: latency grows with each domain boundary crossed; all paths complete every operation",
		},
	}, nil
}

func bridgeProps() ftmgmt.Properties {
	return ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 2,
		MinReplicas:     1,
		ObjectKey:       []byte(expBridgeKey),
		TypeID:          "IDL:eternalgw/Bridge:1.0",
	}
}

// runE2InfrastructureOverhead reproduces figure 2's cost story: what the
// fault tolerance infrastructure (interception + totem + replication
// mechanisms) adds over a plain ORB invocation.
func runE2InfrastructureOverhead(cfg Config) (Result, error) {
	ops := cfg.ops(300, 30)
	payloads := []int{16, 256, 4096}

	// Baseline: plain unreplicated ORB over TCP.
	srv, err := orb.NewServer("127.0.0.1:0")
	if err != nil {
		return Result{}, err
	}
	defer func() { _ = srv.Close() }()
	plain := &RegisterApp{}
	srv.Register([]byte("plain"), plain)
	baseConn, err := orb.Dial(srv.Addr())
	if err != nil {
		return Result{}, err
	}
	defer func() { _ = baseConn.Close() }()

	d, err := newDomain("ny", 3)
	if err != nil {
		return Result{}, err
	}
	defer d.Close()
	if _, err := deployRegisters(d, expServerGroup, expServerKey, replication.Active, 3); err != nil {
		return Result{}, err
	}
	rm := d.Node(2).RM
	if err := rm.JoinGroup(domain.DefaultGatewayGroup, nil); err != nil {
		return Result{}, err
	}
	if err := rm.WaitSynced(domain.DefaultGatewayGroup, 5*time.Second); err != nil {
		return Result{}, err
	}

	var rows [][]string
	reqID := uint32(0)
	for _, size := range payloads {
		payload := make([]byte, size)
		args := OctetSeqArg(payload)

		direct := &obs.Histogram{}
		for i := 0; i < ops; i++ {
			start := time.Now()
			if _, err := baseConn.Call([]byte("plain"), "echo", args, orb.InvokeOptions{}); err != nil {
				return Result{}, err
			}
			direct.Record(time.Since(start))
		}

		infra := &obs.Histogram{}
		for i := 0; i < ops; i++ {
			reqID++
			start := time.Now()
			_, err := rm.Invoke(domain.DefaultGatewayGroup, 1, expServerGroup,
				replication.OperationID{ChildSeq: reqID},
				giop.Request{RequestID: reqID, ResponseExpected: true, ObjectKey: []byte(expServerKey), Operation: "echo", Args: args},
				10*time.Second)
			if err != nil {
				return Result{}, err
			}
			infra.Record(time.Since(start))
		}
		ratio := float64(infra.Mean()) / float64(direct.Mean())
		rows = append(rows,
			[]string{fmt.Sprintf("%d B", size), "plain ORB (no replication)", direct.Mean().Round(time.Microsecond).String(), direct.Percentile(99).Round(time.Microsecond).String(), "1.0x"},
			[]string{fmt.Sprintf("%d B", size), "eternal infrastructure, 3 active replicas", infra.Mean().Round(time.Microsecond).String(), infra.Percentile(99).Round(time.Microsecond).String(), fmt.Sprintf("%.1fx", ratio)},
		)
	}
	return Result{
		ID:      "E2",
		Title:   "Fault tolerance infrastructure overhead vs plain ORB",
		Source:  "Figure 2 / Section 2",
		Headers: []string{"payload", "path", "mean", "p99", "vs plain"},
		Rows:    rows,
		Notes: []string{
			"expected shape: the infrastructure costs a constant factor (total ordering + triple execution) that shrinks relative to payload handling as payloads grow",
		},
	}, nil
}

// runE4MessageEncapsulation reproduces figure 4: the three message
// forms — (a) TCP/IIOP between client and gateway, (b) the gateway's
// multicast into the domain, (c) intra-domain multicasts — and what the
// fault tolerance header costs in bytes and encode/decode time.
func runE4MessageEncapsulation(cfg Config) (Result, error) {
	iters := cfg.ops(20000, 2000)
	payloads := []int{0, 64, 1024}
	var rows [][]string
	for _, size := range payloads {
		req := giop.Request{
			RequestID:        7,
			ResponseExpected: true,
			ObjectKey:        []byte(expServerKey),
			Operation:        "echo",
			Args:             OctetSeqArg(make([]byte, size)),
		}
		wire, err := giop.EncodeRequest(cdr.BigEndian, req)
		if err != nil {
			return Result{}, err
		}
		formA := giop.Marshal(wire)

		mkMsg := func(clientID uint64) replication.Message {
			return replication.Message{
				Header: replication.Header{
					Kind:     replication.KindInvocation,
					ClientID: clientID,
					SrcGroup: 1,
					DstGroup: expServerGroup,
					Op:       replication.OperationID{ParentTS: 123456, ChildSeq: 7},
				},
				Payload: formA,
			}
		}
		formB := replication.Encode(mkMsg(42))                         // gateway -> domain
		formC := replication.Encode(mkMsg(replication.UnusedClientID)) // intra-domain

		encDec := func(msg replication.Message) time.Duration {
			start := time.Now()
			for i := 0; i < iters; i++ {
				b := replication.Encode(msg)
				if _, err := replication.Decode(b); err != nil {
					return 0
				}
			}
			return time.Since(start) / time.Duration(iters)
		}
		costB := encDec(mkMsg(42))

		rows = append(rows,
			[]string{fmt.Sprintf("%d B args", size), "(a) IIOP request over TCP", fmt.Sprintf("%d B", len(formA)), "-"},
			[]string{fmt.Sprintf("%d B args", size), "(b) gateway multicast (FT header + IIOP)", fmt.Sprintf("%d B", len(formB)), costB.String()},
			[]string{fmt.Sprintf("%d B args", size), "(c) intra-domain multicast", fmt.Sprintf("%d B", len(formC)), costB.String()},
		)
	}
	return Result{
		ID:      "E4",
		Title:   "Message forms and encapsulation cost",
		Source:  "Figure 4",
		Headers: []string{"workload", "message form", "wire size", "encode+decode"},
		Rows:    rows,
		Notes: []string{
			"forms (b) and (c) differ only in the TCP client identifier field (an unused value intra-domain); the FT header adds a small constant over raw IIOP",
		},
	}, nil
}

// runE5GatewayLoops reproduces figure 5: the gateway's inbound and
// outbound processing, measured as the cost the gateway adds over
// invoking the infrastructure directly from the gateway's node.
func runE5GatewayLoops(cfg Config) (Result, error) {
	ops := cfg.ops(400, 40)
	d, err := newDomain("ny", 3)
	if err != nil {
		return Result{}, err
	}
	defer d.Close()
	if _, err := deployRegisters(d, expServerGroup, expServerKey, replication.Active, 2); err != nil {
		return Result{}, err
	}
	gw, err := d.AddGateway(2, "")
	if err != nil {
		return Result{}, err
	}

	// Direct: same node, straight into the replication mechanisms.
	rm := d.Node(2).RM
	direct := &obs.Histogram{}
	for i := 1; i <= ops; i++ {
		start := time.Now()
		_, err := rm.Invoke(domain.DefaultGatewayGroup, 99, expServerGroup,
			replication.OperationID{ChildSeq: uint32(i)},
			giop.Request{RequestID: uint32(i), ResponseExpected: true, ObjectKey: []byte(expServerKey), Operation: "ops"},
			10*time.Second)
		if err != nil {
			return Result{}, err
		}
		direct.Record(time.Since(start))
	}

	// Through the gateway: adds figure 5's two loops plus a TCP hop.
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		return Result{}, err
	}
	defer func() { _ = conn.Close() }()
	through := &obs.Histogram{}
	for i := 0; i < ops; i++ {
		start := time.Now()
		if _, err := conn.Call([]byte(expServerKey), "ops", nil, orb.InvokeOptions{}); err != nil {
			return Result{}, err
		}
		through.Record(time.Since(start))
	}
	delta := through.Mean() - direct.Mean()
	st := gw.Stats()
	return Result{
		ID:      "E5",
		Title:   "Gateway processing loops",
		Source:  "Figure 5",
		Headers: []string{"path", "mean", "p50", "p99"},
		Rows: [][]string{
			{"infrastructure only (no gateway)", direct.Mean().Round(time.Microsecond).String(), direct.Percentile(50).Round(time.Microsecond).String(), direct.Percentile(99).Round(time.Microsecond).String()},
			{"through gateway (figure 5 loops + TCP)", through.Mean().Round(time.Microsecond).String(), through.Percentile(50).Round(time.Microsecond).String(), through.Percentile(99).Round(time.Microsecond).String()},
			{"gateway-added cost", delta.Round(time.Microsecond).String(), "-", "-"},
		},
		Notes: []string{
			fmt.Sprintf("gateway stats: forwarded=%d replies=%d abandoned=%d", st.RequestsForwarded, st.RepliesReturned, st.RequestsAbandoned),
			"expected shape: the gateway adds a small per-message cost (header construction, socket-to-client mapping, one TCP round trip)",
		},
	}, nil
}
