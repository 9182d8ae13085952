package thinclient_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/admission"
	"eternalgw/internal/cdr"
	"eternalgw/internal/domain"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/giop"
	"eternalgw/internal/ior"
	"eternalgw/internal/memnet"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/thinclient"
	"eternalgw/internal/totem"
)

const (
	grpCounter replication.GroupID = 200
	keyCounter                     = "app/counter"
)

func fastDomain(t *testing.T, nodes int) *domain.Domain {
	t.Helper()
	d, err := domain.New(domain.Config{
		Name:  "ft",
		Nodes: nodes,
		Totem: totem.Config{
			IdleHold:        100 * time.Microsecond,
			TokenRetransmit: 10 * time.Millisecond,
			FailTimeout:     80 * time.Millisecond,
			GatherTimeout:   20 * time.Millisecond,
		},
		GatewayInvokeTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// counterApp is a deterministic counter.
type counterApp struct {
	mu    sync.Mutex
	total int64
}

func (a *counterApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
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
		return fmt.Errorf("counterApp: unknown op %q", op)
	}
}

func (a *counterApp) State() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteLongLong(a.total)
	return w.Bytes(), nil
}

func (a *counterApp) SetState(state []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := cdr.NewReader(state, cdr.BigEndian)
	a.total = r.ReadLongLong()
	return r.Err()
}

func (a *counterApp) value() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// settled returns the replica's total once it reaches want or stops
// short of it: a call returns on the first replica's response, so
// another replica may still be executing the last operations.
func (a *counterApp) settled(want int64) int64 {
	deadline := time.Now().Add(2 * time.Second)
	for a.value() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return a.value()
}

func deploy(t *testing.T, d *domain.Domain, replicas, gateways int) ([]*counterApp, ior.Ref) {
	t.Helper()
	var (
		mu   sync.Mutex
		apps []*counterApp
	)
	err := d.Manager().CreateReplicatedObject(grpCounter, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: replicas,
		MinReplicas:     replicas,
		ObjectKey:       []byte(keyCounter),
	}, func() (replication.Application, error) {
		mu.Lock()
		defer mu.Unlock()
		app := &counterApp{}
		apps = append(apps, app)
		return app, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < gateways; i++ {
		if _, err := d.AddGateway(d.Nodes()-1-i, ""); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := d.PublishIOR("IDL:eternalgw/Counter:1.0", []byte(keyCounter))
	if err != nil {
		t.Fatal(err)
	}
	return apps, ref
}

func addArgs(v int64) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteLongLong(v)
	return w.Bytes()
}

func TestCallThroughFirstProfile(t *testing.T) {
	d := fastDomain(t, 4)
	_, ref := deploy(t, d, 2, 2)
	c, err := thinclient.Dial(ref, thinclient.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	r, err := c.Call("add", addArgs(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 5 || r.Err() != nil {
		t.Fatalf("add = %d, err %v", got, r.Err())
	}
	if c.Gateway() != d.Gateways()[0].Addr() {
		t.Fatalf("connected to %s, first profile is %s", c.Gateway(), d.Gateways()[0].Addr())
	}
	if st := c.Stats(); st.Calls != 1 || st.Failovers != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailoverToNextGateway(t *testing.T) {
	// Paper section 3.5: the gateway dies; the interception layer skips
	// to the next profile, reconnects and reissues pending invocations.
	// No operation is lost and none executes twice.
	d := fastDomain(t, 4)
	apps, ref := deploy(t, d, 2, 3)
	c, err := thinclient.Dial(ref, thinclient.Config{CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	const calls = 30
	gws := d.Gateways()
	for i := 1; i <= calls; i++ {
		if i == 10 {
			_ = gws[0].Close()
		}
		if i == 20 {
			_ = gws[1].Close()
		}
		r, err := c.Call("add", addArgs(1))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := r.ReadLongLong(); got != int64(i) {
			t.Fatalf("call %d returned %d: operation lost or duplicated", i, got)
		}
	}
	st := c.Stats()
	if st.Failovers < 2 {
		t.Fatalf("failovers = %d, want >= 2", st.Failovers)
	}
	// Exactly-once: every replica executed exactly `calls` operations.
	for i, app := range apps {
		if got := app.settled(calls); got != calls {
			t.Fatalf("replica %d total = %d, want %d", i, got, calls)
		}
	}
	if c.Gateway() != gws[2].Addr() {
		t.Fatalf("final gateway = %s, want %s", c.Gateway(), gws[2].Addr())
	}
}

func TestConcurrentCallersDuringFailover(t *testing.T) {
	d := fastDomain(t, 4)
	apps, ref := deploy(t, d, 2, 2)
	c, err := thinclient.Dial(ref, thinclient.Config{CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	const workers, per = 4, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	kill := make(chan struct{})
	go func() {
		<-kill
		_ = d.Gateways()[0].Close()
	}()
	var once sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if i == per/2 {
					once.Do(func() { close(kill) })
				}
				if _, err := c.Call("add", addArgs(1)); err != nil {
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
		if got := app.settled(workers * per); got != workers*per {
			t.Fatalf("replica %d total = %d, want %d", i, got, workers*per)
		}
	}
}

func TestAllGatewaysDown(t *testing.T) {
	d := fastDomain(t, 3)
	_, ref := deploy(t, d, 1, 2)
	c, err := thinclient.Dial(ref, thinclient.Config{
		CallTimeout: 300 * time.Millisecond,
		DialTimeout: 300 * time.Millisecond,
		MaxRounds:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for _, gw := range d.Gateways() {
		_ = gw.Close()
	}
	_, err = c.Call("get", nil)
	if !errors.Is(err, thinclient.ErrAllGatewaysDown) {
		t.Fatalf("err = %v, want ErrAllGatewaysDown", err)
	}
}

func TestDialFailsWithNoProfiles(t *testing.T) {
	if _, err := thinclient.Dial(ior.Ref{TypeID: "IDL:X:1.0"}, thinclient.Config{}); err == nil {
		t.Fatal("expected error for IOR without IIOP profiles")
	}
}

func TestUniqueIDsDiffer(t *testing.T) {
	d := fastDomain(t, 3)
	_, ref := deploy(t, d, 1, 1)
	c1, err := thinclient.Dial(ref, thinclient.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c1.Close() }()
	c2, err := thinclient.Dial(ref, thinclient.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c2.Close() }()
	if bytes.Equal(c1.UniqueID(), c2.UniqueID()) {
		t.Fatal("two clients generated the same unique id")
	}
}

func TestConfiguredUniqueID(t *testing.T) {
	d := fastDomain(t, 3)
	_, ref := deploy(t, d, 1, 1)
	c, err := thinclient.Dial(ref, thinclient.Config{UniqueID: []byte("bridge-7")})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if string(c.UniqueID()) != "bridge-7" {
		t.Fatalf("unique id = %q", c.UniqueID())
	}
}

func TestShedRetryAndFailover(t *testing.T) {
	// The first gateway's admission control sheds with TRANSIENT; the
	// layer backs off, retries, and after consecutive sheds fails over to
	// the redundant gateway. No operation is lost or duplicated.
	d := fastDomain(t, 4)
	if _, err := d.AddGatewayAdmission(3, "", &admission.Config{Rate: 0.001}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddGateway(2, ""); err != nil {
		t.Fatal(err)
	}
	apps, ref := deploy(t, d, 2, 0)
	c, err := thinclient.Dial(ref, thinclient.Config{ShedBackoff: time.Millisecond, ShedFailover: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	// The burst admits the first call; the second is shed twice on the
	// rate-limited gateway and then completes on the redundant one.
	for i := 1; i <= 2; i++ {
		r, err := c.Call("add", addArgs(1))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := r.ReadLongLong(); got != int64(i) {
			t.Fatalf("call %d returned %d: operation lost or duplicated", i, got)
		}
	}
	st := c.Stats()
	if st.Sheds < 2 || st.Failovers < 1 {
		t.Fatalf("stats = %+v, want >= 2 sheds and a failover", st)
	}
	if c.Gateway() != d.Gateways()[1].Addr() {
		t.Fatalf("connected to %s, want the redundant gateway %s", c.Gateway(), d.Gateways()[1].Addr())
	}
	for i, app := range apps {
		if got := app.settled(2); got != 2 {
			t.Fatalf("replica %d total = %d, want 2", i, got)
		}
	}
}

func TestDrainHandsClientsToRedundantGateway(t *testing.T) {
	// Graceful drain: the connected gateway stops admitting and closes;
	// the layer's reissue lands on the redundant gateway and the
	// section 3.5 identifiers keep the operations exactly-once.
	d := fastDomain(t, 4)
	apps, ref := deploy(t, d, 2, 2)
	c, err := thinclient.Dial(ref, thinclient.Config{CallTimeout: 2 * time.Second, ShedBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	const calls = 20
	gws := d.Gateways()
	for i := 1; i <= calls; i++ {
		if i == 10 {
			go func() { _ = gws[0].Drain(2 * time.Second) }()
		}
		r, err := c.Call("add", addArgs(1))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := r.ReadLongLong(); got != int64(i) {
			t.Fatalf("call %d returned %d: operation lost or duplicated", i, got)
		}
	}
	if st := c.Stats(); st.Failovers < 1 {
		t.Fatalf("stats = %+v, want a failover off the drained gateway", st)
	}
	for i, app := range apps {
		if got := app.settled(calls); got != calls {
			t.Fatalf("replica %d total = %d, want %d", i, got, calls)
		}
	}
}

// TestMinorityGatewayHandsClientsToTheMajority: the processor of the
// first profile's gateway is partitioned off alone, into a ring with no
// majority of the domain's processors, which executes nothing. That
// gateway answers TRANSIENT, COMPLETED_NO, so the layer backs off and
// fails over to the gateway on the majority side, where the call
// completes and executes once.
func TestMinorityGatewayHandsClientsToTheMajority(t *testing.T) {
	d := fastDomain(t, 4)
	apps, ref := deploy(t, d, 2, 2) // replicas on p00 and p01, gateways on p03 and p02
	cut := d.Node(3)
	if slices.Contains(d.Node(0).RM.Members(grpCounter), cut.ID) {
		t.Fatalf("a replica was placed on %s, the processor to be cut off", cut.ID)
	}
	c, err := thinclient.Dial(ref, thinclient.Config{CallTimeout: 2 * time.Second, ShedBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if c.Gateway() != d.Gateways()[0].Addr() {
		t.Fatalf("connected to %s, want the first profile's gateway %s", c.Gateway(), d.Gateways()[0].Addr())
	}

	d.Net.Partition([]memnet.NodeID{cut.ID})
	// Until its ring holds only itself a request may still enter the total
	// order there; from then on the gateway refuses it at once.
	for deadline := time.Now().Add(5 * time.Second); len(cut.Totem.Members()) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s is still in ring %v", cut.ID, cut.Totem.Members())
		}
	}
	conn, err := orb.Dial(d.Gateways()[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	for deadline := time.Now().Add(5 * time.Second); ; {
		_, err := conn.Call([]byte(keyCounter), "get", nil, orb.InvokeOptions{Timeout: 200 * time.Millisecond})
		var sysEx *orb.SystemException
		if errors.As(err, &sysEx) && sysEx.RepoID == orb.RepoTransient && sysEx.Completed == giop.CompletedNo {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the minority's gateway answers %v, want TRANSIENT, COMPLETED_NO", err)
		}
	}

	r, err := c.Call("add", addArgs(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != 1 || r.Err() != nil {
		t.Fatalf("add = %d (err %v), want 1", got, r.Err())
	}
	if st := c.Stats(); st.Sheds < 2 || st.Failovers < 1 || c.Gateway() != d.Gateways()[1].Addr() {
		t.Fatalf("stats = %+v on %s, want the minority's refusals and a failover to %s", st, c.Gateway(), d.Gateways()[1].Addr())
	}
	for i, app := range apps {
		if got := app.settled(1); got != 1 {
			t.Fatalf("replica %d total = %d, want 1", i, got)
		}
	}
}

func TestGatewayChurnWithProfileRefresh(t *testing.T) {
	// Online gateway reconfiguration (paper section 3.5): gateways are
	// added to and removed from the domain's edge under live calls. The
	// domain republishes the multi-profile IOR on every change and the
	// interception layer rebinds, so no operation is lost or duplicated
	// even when the client's connected gateway is withdrawn.
	var (
		clientMu sync.Mutex
		client   *thinclient.Client
	)
	d, err := domain.New(domain.Config{
		Name:  "churn",
		Nodes: 4,
		Totem: totem.Config{
			IdleHold:        100 * time.Microsecond,
			TokenRetransmit: 10 * time.Millisecond,
			FailTimeout:     80 * time.Millisecond,
			GatherTimeout:   20 * time.Millisecond,
		},
		GatewayInvokeTimeout: 5 * time.Second,
		OnIORUpdate: func(objectKey []byte, ref ior.Ref) {
			clientMu.Lock()
			c := client
			clientMu.Unlock()
			if c != nil {
				if err := c.RefreshProfiles(ref); err != nil {
					t.Errorf("refresh profiles: %v", err)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	apps, ref := deploy(t, d, 2, 2)

	c, err := thinclient.Dial(ref, thinclient.Config{CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	clientMu.Lock()
	client = c
	clientMu.Unlock()

	call := func(i int) {
		t.Helper()
		r, err := c.Call("add", addArgs(1))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := r.ReadLongLong(); got != int64(i) {
			t.Fatalf("call %d returned %d: operation lost or duplicated", i, got)
		}
	}

	i := 0
	for ; i < 10; i++ {
		call(i + 1)
	}
	// Withdraw the gateway the client is connected to; the republished
	// reference tells the layer to rebind before the socket dies.
	gws := d.Gateways()
	if err := d.RemoveGateway(gws[0], time.Second); err != nil {
		t.Fatal(err)
	}
	for ; i < 20; i++ {
		call(i + 1)
	}
	// Add a fresh gateway, then withdraw the last original one: the
	// client can only continue if it learned the new profile.
	if _, err := d.AddGateway(0, ""); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveGateway(gws[1], time.Second); err != nil {
		t.Fatal(err)
	}
	for ; i < 30; i++ {
		call(i + 1)
	}

	for idx, app := range apps {
		if got := app.settled(30); got != 30 {
			t.Fatalf("replica %d total = %d, want 30: operations lost or duplicated", idx, got)
		}
	}
	if got := len(d.Gateways()); got != 1 {
		t.Fatalf("gateways after churn = %d, want 1", got)
	}
}
