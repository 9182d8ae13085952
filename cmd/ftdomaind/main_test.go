package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"eternalgw/internal/admission"
	"eternalgw/internal/cdr"
	"eternalgw/internal/domain"
	"eternalgw/internal/experiments"
	"eternalgw/internal/obs"
	"eternalgw/internal/orb"
	"eternalgw/internal/udpnet"
)

// TestParseFlagsApplicability: a flag that cannot apply in the chosen
// mode, or without the ops server it rides on, is rejected by name when
// set explicitly; everything else parses in both modes.
func TestParseFlagsApplicability(t *testing.T) {
	const node = "-node a -registry a=127.0.0.1:1 -replicas 1 "
	tests := []struct {
		args    string
		wantErr string // substring; empty means accepted
	}{
		{"", ""},
		{"-nodes 3 -gateways 1 -udp -monitor 1s -listen 127.0.0.1:0", ""},
		{"-obs-addr 127.0.0.1:0 -trace -pprof", ""},
		{node + "-listen 127.0.0.1:0 -obs-addr 127.0.0.1:0 -trace -pprof", ""},
		{node + "-max-conns 9 -max-conns-per-client 3 -rate 50 -inflight 1", ""},
		{node + "-nodes 3", "-nodes does not apply with -node"},
		{node + "-gateways 1", "-gateways does not apply with -node"},
		{node + "-udp", "-udp does not apply with -node"},
		{node + "-monitor 1s", "-monitor does not apply with -node"},
		{"-registry a=127.0.0.1:1", "-registry does not apply without -node"},
		{"-trace", "-trace requires -obs-addr"},
		{"-pprof", "-pprof requires -obs-addr"},
		{node + "-trace", "-trace requires -obs-addr"},
		{node + "-pprof", "-pprof requires -obs-addr"},
		{"-trace=false -pprof=false", ""},
	}
	for _, tt := range tests {
		o, err := parseFlags(strings.Fields(tt.args))
		switch {
		case tt.wantErr == "" && err != nil:
			t.Errorf("parseFlags(%q) = %v, want accepted", tt.args, err)
		case tt.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tt.wantErr)):
			t.Errorf("parseFlags(%q) = %v, want error containing %q", tt.args, err, tt.wantErr)
		}
		if strings.Contains(tt.args, "-inflight 1") && (o.adm.MaxInFlight != 1 || o.adm.Rate != 50 || o.admissionConfig() == nil) {
			t.Errorf("parseFlags(%q): admission flags lost in node mode: %+v", tt.args, o.adm)
		}
	}
}

// gatewayAddrs lists the addresses of the domain's gateways.
func gatewayAddrs(d *domain.Domain) []string {
	var addrs []string
	for _, gw := range d.Gateways() {
		addrs = append(addrs, gw.Addr())
	}
	return addrs
}

func TestParseStyle(t *testing.T) {
	tests := []struct {
		in      string
		wantErr bool
	}{
		{"stateless", false},
		{"cold", false},
		{"warm", false},
		{"active", false},
		{"voting", false},
		{"ACTIVE", false},
		{"bogus", true},
		{"", true},
	}
	for _, tt := range tests {
		if _, err := parseStyle(tt.in); (err != nil) != tt.wantErr {
			t.Errorf("parseStyle(%q) err = %v", tt.in, err)
		}
	}
}

func TestRunRejectsImpossiblePlacement(t *testing.T) {
	if err := run(runOpts{nodes: 2, replicas: 3, gateways: 1, styleStr: "active"}); err == nil {
		t.Fatal("3 replicas on 2 nodes accepted")
	}
	if err := run(runOpts{nodes: 2, replicas: 1, gateways: 1, styleStr: "sideways"}); err == nil {
		t.Fatal("bad style accepted")
	}
}

func TestGracefulShutdownDrainsGateways(t *testing.T) {
	stop := make(chan struct{})
	ready := make(chan []string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(runOpts{
			nodes: 2, replicas: 1, gateways: 1, styleStr: "active",
			logLevel: "error", drainTimeout: 2 * time.Second,
			adm:     admission.Config{MaxInFlight: 32},
			stop:    stop,
			onReady: func(d *domain.Domain, _ *obs.Server) { ready <- gatewayAddrs(d) },
		})
	}()
	var addrs []string
	select {
	case addrs = <-ready:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("domain never became ready")
	}
	// A client is connected and served before the shutdown.
	conn, err := orb.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Call([]byte(demoKey), "ops", nil, orb.InvokeOptions{Timeout: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// The stop signal triggers the drain; run returns cleanly.
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("graceful shutdown did not complete")
	}
	// The gateway's listener is gone.
	if c, err := orb.Dial(addrs[0]); err == nil {
		_ = c.Close()
		t.Fatal("dial succeeded after shutdown")
	}
}

func TestAdminReconfigEndpoints(t *testing.T) {
	stop := make(chan struct{})
	ready := make(chan []string, 1)
	obsReady := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(runOpts{
			nodes: 3, replicas: 2, gateways: 2, styleStr: "active",
			logLevel: "error", drainTimeout: 2 * time.Second,
			obsAddr: "127.0.0.1:0",
			stop:    stop,
			onReady: func(d *domain.Domain, ops *obs.Server) {
				obsReady <- ops.Addr()
				ready <- gatewayAddrs(d)
			},
		})
	}()
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}()
	var admin string
	var gwAddrs []string
	select {
	case admin = <-obsReady:
		gwAddrs = <-ready
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("domain never became ready")
	}

	post := func(path string, wantCode int) string {
		t.Helper()
		resp, err := http.Post("http://"+admin+path, "", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer func() { _ = resp.Body.Close() }()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("POST %s = %d (%s), want %d", path, resp.StatusCode, body, wantCode)
		}
		return string(body)
	}

	// Grow the demo group onto the spare node, then shrink back.
	if out := post("/reconfig/grow?group=100", http.StatusOK); !strings.Contains(out, "3 members") {
		t.Fatalf("grow response: %q", out)
	}
	if out := post("/reconfig/shrink?group=100", http.StatusOK); !strings.Contains(out, "2 members") {
		t.Fatalf("shrink response: %q", out)
	}
	// Below the minimum the shrink is refused.
	post("/reconfig/shrink?group=100", http.StatusInternalServerError)

	// Rolling upgrade keeps the group at its degree.
	if out := post("/reconfig/upgrade?group=100", http.StatusOK); !strings.Contains(out, "2 members") {
		t.Fatalf("upgrade response: %q", out)
	}

	// Views are listed for every group.
	resp, err := http.Get("http://" + admin + "/reconfig/views")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(body), "group 100") {
		t.Fatalf("views response: %q", body)
	}

	// Gateway churn through the admin surface: add one, then retire one
	// of the originals (its profile is republished away before it drains).
	out := post("/reconfig/gateway/add?node=2", http.StatusOK)
	if !strings.Contains(out, "listening on") {
		t.Fatalf("gateway add response: %q", out)
	}
	out = post("/reconfig/gateway/remove?addr="+url.QueryEscape(gwAddrs[0]), http.StatusOK)
	if !strings.Contains(out, "drained and removed") {
		t.Fatalf("gateway remove response: %q", out)
	}
	post("/reconfig/gateway/remove?addr="+url.QueryEscape(gwAddrs[0]), http.StatusNotFound)
	// Mutating endpoints reject GET.
	if resp, err := http.Get("http://" + admin + "/reconfig/grow"); err == nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET grow = %d, want 405", resp.StatusCode)
		}
		_ = resp.Body.Close()
	}
}

func TestParseRegistry(t *testing.T) {
	reg, ids, err := parseRegistry("b=127.0.0.1:7002, a=127.0.0.1:7001 ,c=127.0.0.1:7003")
	if err != nil {
		t.Fatal(err)
	}
	if len(reg) != 3 || reg["a"] != "127.0.0.1:7001" {
		t.Fatalf("registry = %v", reg)
	}
	if fmt.Sprint(ids) != "[a b c]" {
		t.Fatalf("ids = %v, want sorted [a b c]", ids)
	}
	for _, bad := range []string{"", "a", "=x", "a=", "a=1,a=2"} {
		if _, _, err := parseRegistry(bad); err == nil {
			t.Fatalf("parseRegistry(%q) accepted", bad)
		}
	}
	f := filepath.Join(t.TempDir(), "reg")
	if err := os.WriteFile(f, []byte("# ring\nn0=127.0.0.1:1 # first\n\nn1=127.0.0.1:2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, ids, err = parseRegistry("@" + f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || reg["n1"] != "127.0.0.1:2" {
		t.Fatalf("file registry = %v ids %v", reg, ids)
	}
}

// TestRunNodeMultiProcess stands up a three-member ring with one -node
// run per member — the one-ring-member-per-OS-process deployment,
// exercised in-process so the test can drive the lifecycle directly. Two
// members host replicas by the sorted-registry convention; the third
// hosts the gateway, under -inflight 1. A client invokes through the
// gateway and the register's operations execute exactly once across the
// replicated group; a second client arriving while the window is full is
// shed with TRANSIENT, as in single-process mode.
func TestRunNodeMultiProcess(t *testing.T) {
	reg, err := udpnet.LoopbackRegistry("mp/a", "mp/b", "mp/c")
	if err != nil {
		t.Fatal(err)
	}
	spec := registrySpec(reg)
	stops := make([]chan struct{}, 3)
	dones := make([]chan error, 3)
	ready := make(chan *domain.Domain, 1)
	for i, id := range []string{"mp/a", "mp/b", "mp/c"} {
		stops[i] = make(chan struct{})
		dones[i] = make(chan error, 1)
		o := runOpts{
			node: id, registry: spec, replicas: 2, styleStr: "active",
			ordering: "ring", logLevel: "error", drainTimeout: 2 * time.Second,
			stop: stops[i],
		}
		if id == "mp/c" {
			o.listen = "127.0.0.1:0"
			o.adm.MaxInFlight = 1
			o.onReady = func(d *domain.Domain, _ *obs.Server) { ready <- d }
		}
		go func(o runOpts, done chan error) { done <- run(o) }(o, dones[i])
	}
	stopAll := func() {
		for i := range stops {
			close(stops[i])
		}
		for i, done := range dones {
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("node %d: %v", i, err)
				}
			case <-time.After(20 * time.Second):
				t.Errorf("node %d never shut down", i)
			}
		}
	}
	defer stopAll()

	var gwDomain *domain.Domain
	select {
	case gwDomain = <-ready:
	case <-time.After(60 * time.Second):
		t.Fatal("gateway node never became ready")
	}
	addrs := gatewayAddrs(gwDomain)
	for i, done := range dones {
		select {
		case err := <-done:
			t.Fatalf("node %d exited early: %v", i, err)
		default:
		}
	}
	conn, err := orb.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	opts := orb.InvokeOptions{Timeout: 10 * time.Second}
	if _, err := conn.Call([]byte(demoKey), "set", experiments.OctetSeqArg([]byte("multi")), opts); err != nil {
		t.Fatal(err)
	}
	r, err := conn.Call([]byte(demoKey), "append", experiments.OctetSeqArg([]byte("-process")), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ops := r.ReadLongLong(); ops != 2 {
		t.Fatalf("ops after set+append = %d, want 2 (duplicated execution?)", ops)
	}
	r, err = conn.Call([]byte(demoKey), "read", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(r.ReadOctetSeq()); got != "multi-process" {
		t.Fatalf("register = %q", got)
	}

	// Admission applies in node mode: a slow invocation fills the
	// -inflight 1 window and a second client is shed once it has waited
	// out the admit deadline.
	work := cdr.NewWriter(cdr.BigEndian)
	work.WriteULong(1000) // server-side milliseconds
	work.WriteOctetSeq([]byte("!"))
	slowDone := make(chan error, 1)
	go func() {
		_, err := conn.Call([]byte(demoKey), "work", work.Bytes(), opts)
		slowDone <- err
	}()
	gw := gwDomain.Gateways()[0]
	for deadline := time.Now().Add(5 * time.Second); gw.InFlight() < 1; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("slow invocation never in flight")
		}
	}
	fast, err := orb.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fast.Close() }()
	_, err = fast.Call([]byte(demoKey), "ops", nil, opts)
	var sysEx *orb.SystemException
	if !errors.As(err, &sysEx) || sysEx.RepoID != orb.RepoTransient {
		t.Fatalf("second client with the window full: err = %v, want TRANSIENT", err)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("admitted slow call failed: %v", err)
	}
}

// registrySpec renders a registry back into the -registry flag syntax.
func registrySpec(reg udpnet.Registry) string {
	parts := make([]string, 0, len(reg))
	for id, addr := range reg {
		parts = append(parts, string(id)+"="+addr)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
