package core_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eternalgw/internal/admission"
	"eternalgw/internal/cdr"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
)

// encodeWork builds the args of the register's "work" op: a server-side
// sleep of ms milliseconds followed by an append. It is how these tests
// make the domain slow deterministically, without touching the network.
func encodeWork(ms uint32, data []byte) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteULong(ms)
	w.WriteOctetSeq(data)
	return w.Bytes()
}

func waitUint64(t *testing.T, get func() uint64, want uint64, what string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for get() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", what, get(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestGatewayShedsBeyondWindow(t *testing.T) {
	d := fastDomain(t, "ny", 2)
	deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGatewayAdmission(0, "", &admission.Config{
		MaxInFlight: 1,
		AdmitWait:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// One slow invocation occupies the whole window...
	slow, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = slow.Close() }()
	slowDone := make(chan error, 1)
	go func() {
		_, err := slow.Call([]byte(keyRegister), "work", encodeWork(300, []byte("s")), orb.InvokeOptions{})
		slowDone <- err
	}()
	// ...then a second client is shed with TRANSIENT once it has waited
	// out the AdmitWait deadline. Poll until the slow call is in flight.
	waitInt(t, gw.InFlight, 1, "in-flight")
	fast, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fast.Close() }()
	_, err = fast.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{})
	var sysEx *orb.SystemException
	if !errors.As(err, &sysEx) {
		t.Fatalf("err = %v, want a system exception", err)
	}
	if sysEx.RepoID != orb.RepoTransient {
		t.Fatalf("repo id = %s, want TRANSIENT", sysEx.RepoID)
	}
	if sysEx.Minor != admission.ShedWindow.Minor() {
		t.Fatalf("minor = %d, want ShedWindow (%d)", sysEx.Minor, admission.ShedWindow.Minor())
	}
	if sysEx.Completed != 1 {
		t.Fatalf("completed = %d, want COMPLETED_NO", sysEx.Completed)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("admitted slow call failed: %v", err)
	}
	st := gw.Stats()
	if st.RequestsShed == 0 {
		t.Fatalf("stats = %+v, want RequestsShed > 0", st)
	}
	if s := gw.Admission().Stats(); s.ShedWindow == 0 || s.Admitted == 0 {
		t.Fatalf("admission stats = %+v", s)
	}
}

func TestGatewayRateLimitSheds(t *testing.T) {
	d := fastDomain(t, "ny", 2)
	deployRegister(t, d, replication.Active, 1)
	// A burst of twice the rate, 2; the next token is a second away.
	gw, err := d.AddGatewayAdmission(0, "", &admission.Config{Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	for i := 0; i < 2; i++ {
		if _, err := conn.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{}); err != nil {
			t.Fatalf("call %d within burst: %v", i, err)
		}
	}
	_, err = conn.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{})
	var sysEx *orb.SystemException
	if !errors.As(err, &sysEx) || sysEx.RepoID != orb.RepoTransient || sysEx.Minor != admission.ShedRate.Minor() {
		t.Fatalf("err = %v, want TRANSIENT/ShedRate", err)
	}
}

func TestGatewayPerClientConnCap(t *testing.T) {
	d := fastDomain(t, "ny", 2)
	deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGatewayAdmission(0, "", &admission.Config{MaxConnsPerClient: 1})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c1.Close() }()
	if _, err := c1.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	// The second connection from the same address is shed at accept time
	// with a CloseConnection; an invocation on it fails.
	c2, err := orb.Dial(gw.Addr())
	if err == nil {
		defer func() { _ = c2.Close() }()
		if _, err := c2.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{Timeout: 2 * time.Second}); err == nil {
			t.Fatal("call over the per-client cap succeeded")
		}
	}
	waitUint64(t, func() uint64 { return gw.Stats().ConnectionsShed }, 1, "connections shed")
	// Closing the first connection frees the slot for the client again.
	_ = c1.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		c3, err := orb.Dial(gw.Addr())
		if err == nil {
			_, err = c3.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{Timeout: time.Second})
			_ = c3.Close()
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("connection slot never freed: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGatewayBreakerShedsConnections(t *testing.T) {
	d := fastDomain(t, "ny", 2)
	deployRegister(t, d, replication.Active, 1)
	var load atomic.Uint64 // signal in thousandths
	gw, err := d.AddGatewayAdmission(0, "", &admission.Config{
		Backpressure: func() float64 { return float64(load.Load()) / 1000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	adm := gw.Admission()
	// Healthy domain: connections are admitted.
	c1, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	_ = c1.Close()
	// Sustained overload trips the breaker; new connections are shed.
	load.Store(1000)
	start := time.Now()
	for !adm.BreakerOpen() {
		if time.Since(start) > 3*time.Second {
			t.Fatal("breaker did not trip")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if held := time.Since(start); held < 200*time.Millisecond {
		t.Fatalf("breaker tripped %v into the overload, before its sustain period of 200ms", held)
	}
	c2, err := orb.Dial(gw.Addr())
	if err == nil {
		if _, err := c2.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{Timeout: 2 * time.Second}); err == nil {
			t.Fatal("call through tripped breaker succeeded")
		}
		_ = c2.Close()
	}
	waitUint64(t, func() uint64 { return adm.Stats().ConnsShedBreaker }, 1, "breaker sheds")
	// The domain recovers; after the cooldown of a second the gateway
	// serves again.
	load.Store(0)
	deadline := time.Now().Add(3 * time.Second)
	for {
		c3, err := orb.Dial(gw.Addr())
		if err == nil {
			_, err = c3.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{Timeout: time.Second})
			_ = c3.Close()
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never recovered from breaker: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGatewayDrainBleedsInFlight(t *testing.T) {
	d := fastDomain(t, "ny", 2)
	deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGatewayAdmission(0, "", &admission.Config{MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	type result struct {
		ops int64
		err error
	}
	done := make(chan result, 1)
	go func() {
		r, err := conn.Call([]byte(keyRegister), "work", encodeWork(150, []byte("d")), orb.InvokeOptions{})
		if err != nil {
			done <- result{err: err}
			return
		}
		done <- result{ops: r.ReadLongLong(), err: r.Err()}
	}()
	waitInt(t, gw.InFlight, 1, "in-flight")
	// Drain must wait for the in-flight invocation and deliver its reply.
	if err := gw.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	res := <-done
	if res.err != nil || res.ops != 1 {
		t.Fatalf("in-flight call during drain: ops=%d err=%v", res.ops, res.err)
	}
	if !gw.Draining() {
		t.Fatal("gateway does not report draining")
	}
	// The listener is gone: no new connections.
	if c, err := orb.Dial(gw.Addr()); err == nil {
		_ = c.Close()
		t.Fatal("dial succeeded after drain")
	}
}

func TestGatewayDrainShedsNewRequests(t *testing.T) {
	d := fastDomain(t, "ny", 2)
	deployRegister(t, d, replication.Active, 1)
	gw, err := d.AddGatewayAdmission(0, "", &admission.Config{MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	// Begin the drain concurrently with a long in-flight call so the
	// established connection is still open to observe the shed.
	hold, err := orb.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hold.Close() }()
	holdDone := make(chan error, 1)
	go func() {
		_, err := hold.Call([]byte(keyRegister), "work", encodeWork(300, []byte("h")), orb.InvokeOptions{})
		holdDone <- err
	}()
	// InFlight can still read 1 from the "ops" call above — the gauge
	// covers the reply write, so its decrement runs after the client has
	// its reply — which would start the drain before the held request has
	// arrived. Wait for the held request to be inside the domain first.
	waitInt(t, func() int64 { return int64(gw.Stats().RequestsForwarded) }, 2, "requests forwarded")
	waitInt(t, gw.InFlight, 1, "in-flight")
	drainDone := make(chan error, 1)
	go func() { drainDone <- gw.Drain(5 * time.Second) }()
	// Wait until the gateway flips to draining, then send a request on
	// the established connection: it must be shed, not hang.
	deadline := time.Now().Add(time.Second)
	for !gw.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	_, err = conn.Call([]byte(keyRegister), "ops", nil, orb.InvokeOptions{Timeout: 2 * time.Second})
	var sysEx *orb.SystemException
	if !errors.As(err, &sysEx) || sysEx.RepoID != orb.RepoTransient || sysEx.Minor != admission.ShedDraining.Minor() {
		t.Fatalf("err = %v, want TRANSIENT/ShedDraining", err)
	}
	if err := <-holdDone; err != nil {
		t.Fatalf("in-flight call during drain: %v", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestGatewayConcurrentClientsWithAdmission(t *testing.T) {
	// Generous caps must not change behaviour: the existing concurrency
	// test, with admission on.
	d := fastDomain(t, "ny", 3)
	apps := deployRegister(t, d, replication.Active, 2)
	gw, err := d.AddGatewayAdmission(2, "", &admission.Config{
		MaxConns:    64,
		MaxInFlight: 64,
		Rate:        1e6,
		AdmitWait:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients, calls = 6, 10
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
			for i := 0; i < calls; i++ {
				if _, err := conn.Call([]byte(keyRegister), "append", encodeOctetSeq([]byte("x")), orb.InvokeOptions{}); err != nil {
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
	for i, app := range apps {
		waitInt(t, func() int64 { return app.totalOps() }, clients*calls, fmt.Sprintf("replica %d", i))
	}
	if shed := gw.Stats().RequestsShed; shed != 0 {
		t.Fatalf("generous admission shed %d requests", shed)
	}
}
