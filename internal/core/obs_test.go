package core_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/domain"
	"eternalgw/internal/obs"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
)

// obsDomain is fastDomain with the observability subsystem wired in.
func obsDomain(t *testing.T, name string, nodes int, reg *obs.Registry, tracer *obs.Tracer) *domain.Domain {
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
		GatewayInvokeTimeout: 5 * time.Second,
		Metrics:              reg,
		Tracer:               tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestGatewayStatsConcurrent drives many client connections in parallel
// and checks that the gateway's counters account for every request.
func TestGatewayStatsConcurrent(t *testing.T) {
	d := fastDomain(t, "stats", 3)
	deployRegister(t, d, replication.Active, 2)
	gw, err := d.AddGateway(0, "")
	if err != nil {
		t.Fatal(err)
	}

	const (
		clients  = 8
		perConn  = 25
		expected = clients * perConn
	)
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
			for i := 0; i < perConn; i++ {
				if _, err := conn.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{RequestID: uint32(i + 1)}); err != nil {
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

	s := gw.Stats()
	if s.ConnectionsAccepted != clients {
		t.Errorf("ConnectionsAccepted = %d, want %d", s.ConnectionsAccepted, clients)
	}
	if s.RequestsReceived != expected {
		t.Errorf("RequestsReceived = %d, want %d", s.RequestsReceived, expected)
	}
	if s.RequestsForwarded != expected {
		t.Errorf("RequestsForwarded = %d, want %d", s.RequestsForwarded, expected)
	}
	if s.RepliesReturned != expected {
		t.Errorf("RepliesReturned = %d, want %d", s.RepliesReturned, expected)
	}
	if s.Exceptions != 0 || s.RequestsAbandoned != 0 {
		t.Errorf("unexpected failures: %+v", s)
	}
}

// TestMetricsEndToEnd runs a client request through a fully instrumented
// domain and verifies the ops endpoints: /metrics must expose the
// gateway, replication and totem counters the request drove, and
// /healthz must answer.
func TestMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(64)
	tracer.Register(reg)
	d := obsDomain(t, "e2e", 3, reg, tracer)
	deployRegister(t, d, replication.Active, 2)
	gw, err := d.AddGateway(2, "")
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.NewHandler(reg, tracer, obs.ServerOptions{}).Handler())
	t.Cleanup(srv.Close)

	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := conn.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{RequestID: uint32(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}

	body := fetch(t, srv.URL+"/metrics")
	gwLabel := fmt.Sprintf("{gateway=%q}", gw.Addr())
	for _, want := range []string{
		"# TYPE eternalgw_gateway_requests_received_total counter",
		fmt.Sprintf("eternalgw_gateway_requests_received_total%s %d", gwLabel, calls),
		fmt.Sprintf("eternalgw_gateway_replies_returned_total%s %d", gwLabel, calls),
		fmt.Sprintf("eternalgw_gateway_connections_accepted_total%s 1", gwLabel),
		"eternalgw_replication_invocations_executed_total",
		"eternalgw_totem_delivered_total",
		"eternalgw_trace_completed_total",
		"eternalgw_gateway_request_duration_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The request was executed on both active replicas (nodes 0 and 1).
	var executed int
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "eternalgw_replication_invocations_executed_total") {
			var n int
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n); err == nil {
				executed += n
			}
		}
	}
	if executed < calls {
		t.Errorf("domain-wide invocations executed = %d, want >= %d", executed, calls)
	}

	if got := fetch(t, srv.URL+"/healthz"); !strings.Contains(got, "ok") {
		t.Errorf("/healthz = %q", got)
	}

	// The tracer followed the request across layers: gateway accept
	// through multicast, delivery, execution, and the reply write.
	recent := tracer.Recent()
	if len(recent) == 0 {
		t.Fatal("no completed traces recorded")
	}
	stages := make(map[obs.Stage]bool)
	for _, hop := range recent[0].Breakdown() {
		stages[hop.From] = true
		stages[hop.To] = true
	}
	for _, want := range []obs.Stage{
		obs.StageGatewayAccept, obs.StageMulticastSend,
		obs.StageDeliver, obs.StageExecute, obs.StageReplyWrite,
	} {
		if !stages[want] {
			t.Errorf("trace missing stage %v (got %v)", want, recent[0].Breakdown())
		}
	}

	statusz := fetch(t, srv.URL+"/statusz")
	if !strings.Contains(statusz, "traces") {
		t.Errorf("/statusz missing trace section: %q", statusz)
	}
}

func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
