// Reconfiguration soak: a degree-3 active group is rolling-upgraded and
// the gateway set churned while thin clients append unique markers at
// full load, run under -race by `make soak-reconfig`. The assertions are
// the online-reconfiguration contract: every marker lands in the
// replicated state exactly once and in one total order, the upgraded
// replicas catch up from a checkpoint plus a bounded log suffix (never
// from the start of history), and the republished multi-profile IORs
// carry clients across the gateway churn without a lost or duplicated
// operation.
package eternalgw_test

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/domain"
	"eternalgw/internal/experiments"
	"eternalgw/internal/faultinject"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/ior"
	"eternalgw/internal/replication"
	"eternalgw/internal/thinclient"
	"eternalgw/internal/totem"
)

func marker(client, call uint32) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint32(b, client)
	binary.BigEndian.PutUint32(b[4:], call)
	return b
}

func TestReconfigRollingUpgradeSoak(t *testing.T) {
	const clients = 16
	calls := 25
	if testing.Short() {
		calls = 8
	}
	total := clients * calls

	var (
		clientMu    sync.Mutex
		liveClients []*thinclient.Client
		lastRef     ior.Ref
		haveRef     bool
	)
	d, err := domain.New(domain.Config{
		Name:  "reconfig-soak",
		Nodes: 4,
		Totem: totem.Config{
			IdleHold:        100 * time.Microsecond,
			TokenRetransmit: 10 * time.Millisecond,
			FailTimeout:     80 * time.Millisecond,
			GatherTimeout:   20 * time.Millisecond,
		},
		GatewayInvokeTimeout: 10 * time.Second,
		OnIORUpdate: func(objectKey []byte, ref ior.Ref) {
			clientMu.Lock()
			lastRef, haveRef = ref, true
			cs := append([]*thinclient.Client(nil), liveClients...)
			clientMu.Unlock()
			for _, c := range cs {
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

	factory := func() (replication.Application, error) { return &experiments.RegisterApp{}, nil }
	err = d.Manager().CreateReplicatedObject(benchGroup, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 3,
		MinReplicas:     3,
		ObjectKey:       []byte(benchKey),
		TypeID:          benchType,
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	gwA, err := d.AddGateway(0, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddGateway(1, ""); err != nil {
		t.Fatal(err)
	}
	ref, err := d.PublishIOR(benchType, []byte(benchKey))
	if err != nil {
		t.Fatal(err)
	}

	// Baseline transfer stats: the initial placement performs transfers
	// of its own; only what the fault plan causes afterwards is asserted
	// against.
	sumStats := func() replication.Stats {
		var out replication.Stats
		for i := 0; i < d.Nodes(); i++ {
			st := d.Node(i).RM.Stats()
			out.StateTransfers += st.StateTransfers
			out.TransferEntriesReplayed += st.TransferEntriesReplayed
			out.ViewChanges += st.ViewChanges
		}
		return out
	}
	before := sumStats()

	// The fault plan reconfigures the domain mid-storm. Thresholds are
	// operation counts, so the schedule is reproducible regardless of
	// machine speed; the operations themselves run concurrently with the
	// load on their own goroutines, which is the point of the soak.
	var reconfWG sync.WaitGroup
	reconfErr := make(chan error, 4)
	plan := faultinject.NewPlan(
		faultinject.Step{AtOp: uint64(total / 4), Name: "rolling-upgrade", Action: func() {
			reconfWG.Add(1)
			go func() {
				defer reconfWG.Done()
				if _, err := d.Manager().RollingUpgrade(benchGroup, factory); err != nil {
					reconfErr <- err
				}
			}()
		}},
		faultinject.Step{AtOp: uint64(total / 2), Name: "gateway-churn", Action: func() {
			reconfWG.Add(1)
			go func() {
				defer reconfWG.Done()
				if _, err := d.AddGateway(3, ""); err != nil {
					reconfErr <- err
					return
				}
				if err := d.RemoveGateway(gwA, 5*time.Second); err != nil {
					reconfErr <- err
				}
			}()
		}},
	)

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c uint32) {
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
			clientMu.Lock()
			liveClients = append(liveClients, tc)
			if haveRef {
				cur := lastRef
				clientMu.Unlock()
				_ = tc.RefreshProfiles(cur)
			} else {
				clientMu.Unlock()
			}
			for i := 0; i < calls; i++ {
				if _, err := tc.Call("append", experiments.OctetSeqArg(marker(c, uint32(i)))); err != nil {
					errCh <- err
					return
				}
				plan.Tick()
			}
		}(uint32(c))
	}
	wg.Wait()
	reconfWG.Wait()
	close(errCh)
	close(reconfErr)
	for err := range errCh {
		t.Fatal(err)
	}
	for err := range reconfErr {
		t.Fatalf("reconfiguration failed under load: %v", err)
	}
	if !plan.Done() {
		t.Fatalf("fault plan incomplete: fired %v after %d ops", plan.Fired(), plan.Ops())
	}

	// Read the replicated register back through the surviving gateways.
	clientMu.Lock()
	finalRef := ref
	if haveRef {
		finalRef = lastRef
	}
	clientMu.Unlock()
	tc, err := thinclient.Dial(finalRef, thinclient.Config{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tc.Close() }()
	r, err := tc.Call("ops", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ReadLongLong(); got != int64(total) {
		t.Fatalf("replicas executed %d ops, want exactly %d", got, total)
	}
	r, err = tc.Call("read", nil)
	if err != nil {
		t.Fatal(err)
	}
	value := r.ReadOctetSeq()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(value) != total*8 {
		t.Fatalf("register holds %d bytes, want %d (markers lost or duplicated)", len(value), total*8)
	}
	seen := make(map[uint64]int, total)
	for off := 0; off < len(value); off += 8 {
		seen[binary.BigEndian.Uint64(value[off:])]++
	}
	for c := uint32(0); c < clients; c++ {
		for i := uint32(0); i < uint32(calls); i++ {
			if n := seen[binary.BigEndian.Uint64(marker(c, i))]; n != 1 {
				t.Fatalf("marker client=%d call=%d appended %d times, want exactly once", c, i, n)
			}
		}
	}

	// The upgraded replicas caught up from checkpoints, replaying only a
	// bounded suffix of the invocation log — not history from zero.
	delta := sumStats()
	delta.StateTransfers -= before.StateTransfers
	delta.TransferEntriesReplayed -= before.TransferEntriesReplayed
	if delta.StateTransfers < 3 {
		t.Fatalf("checkpointed transfers during upgrade = %d, want >= 3 (one per replaced replica)", delta.StateTransfers)
	}
	if delta.TransferEntriesReplayed >= uint64(total) {
		t.Fatalf("joiners replayed %d entries (load was %d): state transfer replayed history from zero", delta.TransferEntriesReplayed, total)
	}

	// Every surviving node agrees on the group's final membership view.
	v0, ok := d.Node(0).RM.View(benchGroup)
	if !ok {
		t.Fatal("no view for the soak group")
	}
	for i := 1; i < d.Nodes(); i++ {
		if err := d.Node(i).RM.WaitForView(benchGroup, v0.Number, 5*time.Second); err != nil {
			t.Fatalf("node %d never reached view %d: %v", i, v0.Number, err)
		}
	}
}
