// Overload soak: one gateway slammed well beyond its configured caps
// while the domain is deliberately slowed, run under -race by `make
// soak`. The assertions are the admission subsystem's contract — under
// 4x the configured in-flight load the gateway stays bounded (request
// goroutines never exceed the window, total goroutines and heap stay
// flat), sheds with proper TRANSIENT replies, and retrying enhanced
// clients lose nothing.
package eternalgw_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eternalgw/internal/admission"
	"eternalgw/internal/domain"
	"eternalgw/internal/experiments"
	"eternalgw/internal/faultinject"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/replication"
	"eternalgw/internal/thinclient"
	"eternalgw/internal/totem"
)

func soakDomain(t *testing.T, nodes int) *domain.Domain {
	t.Helper()
	d, err := domain.New(domain.Config{
		Name:  "soak",
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
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestGatewayOverloadSoak(t *testing.T) {
	const (
		window  = 8          // configured in-flight cap
		clients = 4 * window // 4x overload
	)
	calls := 25
	if testing.Short() {
		calls = 8
	}
	d := soakDomain(t, 2)
	app := &experiments.RegisterApp{}
	err := d.Manager().CreateReplicatedObject(benchGroup, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 1,
		MinReplicas:     1,
		ObjectKey:       []byte(benchKey),
		TypeID:          benchType,
	}, func() (replication.Application, error) { return app, nil })
	if err != nil {
		t.Fatal(err)
	}
	gw, err := d.AddGatewayAdmission(1, "", &admission.Config{
		MaxConns:          2 * clients,
		MaxConnsPerClient: 2 * clients, // every soak client shares 127.0.0.1
		MaxInFlight:       window,
		AdmitWait:         2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := d.PublishIOR(benchType, []byte(benchKey))
	if err != nil {
		t.Fatal(err)
	}

	// The fault plan slows the domain mid-soak: between the two
	// thresholds every call runs the "work" op, whose server-side sleep
	// holds invocations inside the domain so the in-flight window fills
	// and the gateway must shed. Thresholds are operation counts, so the
	// schedule is reproducible regardless of machine speed.
	var slow atomic.Bool
	total := clients * calls
	plan := faultinject.NewPlan(
		faultinject.Step{AtOp: uint64(total / 8), Name: "slow-domain", Action: func() { slow.Store(true) }},
		faultinject.Step{AtOp: uint64(total * 3 / 4), Name: "restore-domain", Action: func() { slow.Store(false) }},
	)

	// Monitor: sample the process and gateway while the storm runs. The
	// in-flight maximum is the boundedness claim itself; the goroutine
	// and heap ceilings catch any unbounded-spawn regression (the old
	// gateway spawned one goroutine per request and per departure
	// overflow, unconditionally).
	baseline := runtime.NumGoroutine()
	monStop := make(chan struct{})
	var monWG sync.WaitGroup
	var maxGoroutines, maxInFlight int64
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-monStop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if n := int64(runtime.NumGoroutine()); n > maxGoroutines {
				maxGoroutines = n
			}
			if n := gw.Admission().InFlight(); n > maxInFlight {
				maxInFlight = n
			}
		}
	}()

	args := experiments.OctetSeqArg(make([]byte, 64))
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc, err := thinclient.Dial(ref, thinclient.Config{
				CallTimeout:  10 * time.Second,
				MaxRounds:    500,
				ShedBackoff:  500 * time.Microsecond,
				ShedFailover: 8,
			})
			if err != nil {
				errCh <- err
				return
			}
			defer func() { _ = tc.Close() }()
			for i := 0; i < calls; i++ {
				op, a := "echo", args
				if slow.Load() {
					op, a = "work", experiments.WorkArg(3, []byte("w"))
				}
				if _, err := tc.Call(op, a); err != nil {
					errCh <- err
					return
				}
				plan.Tick()
			}
		}()
	}
	wg.Wait()
	close(monStop)
	monWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if fired := plan.FiredAt(); len(fired) != len(plan.Steps()) {
		t.Fatalf("fault plan incomplete: fired %v after %d ops", fired, plan.Ops())
	}
	// Boundedness: admitted work never exceeded the window, and the
	// process never grew goroutines beyond the per-connection constant.
	if maxInFlight > window {
		t.Fatalf("in-flight peaked at %d, window is %d", maxInFlight, window)
	}
	// Per client: the thinclient connection, the gateway's serveConn,
	// and client-side plumbing. The window bounds request handlers; 64
	// covers the domain's own fixed goroutines.
	if limit := int64(baseline + clients*6 + window + 64); maxGoroutines > limit {
		t.Fatalf("goroutines peaked at %d (baseline %d, limit %d): unbounded spawn", maxGoroutines, baseline, limit)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 512<<20 {
		t.Fatalf("heap = %d MiB after soak", ms.HeapAlloc>>20)
	}
	// The overload was real (the gateway shed with TRANSIENT) and the
	// retrying clients survived it: every call executed exactly once.
	st := gw.Stats()
	if st.RequestsShed == 0 {
		t.Fatalf("no requests shed; soak did not overload the gateway (stats %+v)", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for app.Ops() < int64(total) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := app.Ops(); got != int64(total) {
		t.Fatalf("replica executed %d ops, want exactly %d", got, total)
	}
	if s := gw.Admission().Stats(); s.ShedWindow == 0 {
		t.Fatalf("admission stats %+v, want window sheds", s)
	}
}
