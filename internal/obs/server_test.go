package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestOpsEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("eternalgw_up_total", "Ups.", nil, func() uint64 { return 5 })
	tracer := NewTracer(8)
	key := TraceKey{ClientID: 9, ChildSeq: 1}
	tracer.Event(key, StageGatewayAccept, "gw")
	tracer.Event(key, StageMulticastSend, "gw")
	tracer.Event(key, StageReplyWrite, "gw")

	s := NewHandler(reg, tracer, ServerOptions{})
	s.AddStatusSection("dedup cache", func() string { return "group 100: 17 entries" })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := get(t, ts.URL+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before ready = %d", code)
	}
	s.SetReady(true)
	if code, body := get(t, ts.URL+"/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz after ready = %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/metrics"); code != 200 || !strings.Contains(body, "eternalgw_up_total 5") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	code, body := get(t, ts.URL+"/statusz")
	if code != 200 {
		t.Fatalf("/statusz = %d", code)
	}
	for _, want := range []string{"recent traces", "9/(0,1)", "multicast_send", "== dedup cache ==", "17 entries"} {
		if !strings.Contains(body, want) {
			t.Errorf("/statusz missing %q:\n%s", want, body)
		}
	}
}

func TestServerListensAndCloses(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", NewRegistry(), nil, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, "http://"+s.Addr()+"/healthz"); code != 200 {
		t.Fatalf("/healthz over TCP = %d", code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestPprofEndpointsGated(t *testing.T) {
	// Default posture: the profiling handlers are not mounted.
	off := httptest.NewServer(NewHandler(nil, nil, ServerOptions{}).Handler())
	defer off.Close()
	if code, _ := get(t, off.URL+"/debug/pprof/cmdline"); code != http.StatusNotFound {
		t.Fatalf("pprof off: /debug/pprof/cmdline = %d, want 404", code)
	}

	on := httptest.NewServer(NewHandler(nil, nil, ServerOptions{Pprof: true}).Handler())
	defer on.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		if code, _ := get(t, on.URL+path); code != http.StatusOK {
			t.Fatalf("pprof on: %s = %d, want 200", path, code)
		}
	}
}
