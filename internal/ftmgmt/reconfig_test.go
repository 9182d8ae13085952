package ftmgmt_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"eternalgw/internal/domain"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
	"eternalgw/internal/replication"
)

const syncedTimeout = 5 * time.Second

// coordinatorFor returns a manager of its own over the domain's
// processors, so a test can instrument it with a registry of its own.
func coordinatorFor(d *domain.Domain) *ftmgmt.Manager {
	hosts := make([]ftmgmt.Host, 0, d.Nodes())
	for i := 0; i < d.Nodes(); i++ {
		n := d.Node(i)
		hosts = append(hosts, ftmgmt.Host{ID: n.ID, RM: n.RM})
	}
	return ftmgmt.NewManager(hosts...)
}

// newGroup deploys the object with one replica and no minimum (so a
// shrink is refused only at the last replica), then grows it to the
// given degree one operator grow at a time.
func newGroup(t *testing.T, d *domain.Domain, c *ftmgmt.Manager, degree int, factory ftmgmt.Factory) {
	t.Helper()
	err := c.CreateReplicatedObject(grpObj, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: 1,
		ObjectKey:       []byte(keyObj),
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Nodes(); i++ {
		if err := d.Node(i).RM.WaitForGroup(grpObj, syncedTimeout); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < degree; i++ {
		if _, err := c.Grow(grpObj); err != nil {
			t.Fatalf("grow %d: %v", i, err)
		}
	}
}

// invokeInt is invoke returning the reply's first long long.
func invokeInt(t *testing.T, d *domain.Domain, i int, reqID uint32, op string) int64 {
	t.Helper()
	r, err := invoke(t, d, i, reqID, op)
	if err != nil {
		t.Fatalf("invoke %s: %v", op, err)
	}
	v := r.ReadLongLong()
	if err := r.Err(); err != nil {
		t.Fatalf("invoke %s: decode reply: %v", op, err)
	}
	return v
}

func memberSet(nodes []memnet.NodeID) map[memnet.NodeID]bool {
	out := make(map[memnet.NodeID]bool, len(nodes))
	for _, n := range nodes {
		out[n] = true
	}
	return out
}

func sumStats(d *domain.Domain) replication.Stats {
	var total replication.Stats
	for i := 0; i < d.Nodes(); i++ {
		st := d.Node(i).RM.Stats()
		total.ViewChanges += st.ViewChanges
		total.StateTransfers += st.StateTransfers
		total.TransferEntriesReplayed += st.TransferEntriesReplayed
		total.CatchupCheckpoints += st.CatchupCheckpoints
	}
	return total
}

// TestGrowCatchesUpFromCheckpoint grows a loaded degree-2 group to three
// replicas and verifies the joiner caught up from a checkpoint plus a
// bounded log suffix, not by replaying history from zero.
func TestGrowCatchesUpFromCheckpoint(t *testing.T) {
	d := fastDomain(t, 3)
	c := coordinatorFor(d)
	newGroup(t, d, c, 2, factoryV(1, nil, nil))

	const ops = 20
	reqID := uint32(0)
	for i := 0; i < ops; i++ {
		reqID++
		if got := invokeInt(t, d, 0, reqID, "bump"); got != int64(i+1) {
			t.Fatalf("bump %d: ops = %d", i+1, got)
		}
	}

	before := sumStats(d)
	prev, ok := d.Node(0).RM.View(grpObj)
	if !ok {
		t.Fatal("no view for group")
	}
	v, err := c.Grow(grpObj)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Members) != 3 {
		t.Fatalf("view members = %v, want 3", v.Members)
	}
	if v.Number != prev.Number+1 {
		t.Fatalf("view number = %d, want %d", v.Number, prev.Number+1)
	}

	after := sumStats(d)
	if got := after.StateTransfers - before.StateTransfers; got == 0 {
		t.Fatal("joiner was not fed from a checkpoint")
	}
	replayed := after.TransferEntriesReplayed - before.TransferEntriesReplayed
	if replayed > cpInterval {
		t.Fatalf("joiner replayed %d entries, want at most the checkpoint interval (%d)", replayed, cpInterval)
	}

	// The group keeps executing with carried state: the next operation
	// observes every one of the pre-grow invocations.
	reqID++
	if got := invokeInt(t, d, 0, reqID, "bump"); got != ops+1 {
		t.Fatalf("post-grow ops = %d, want %d", got, ops+1)
	}
}

// TestShrinkEvictsNewestMember checks that Shrink removes the most
// recently joined replica through an ordered view change every node
// installs.
func TestShrinkEvictsNewestMember(t *testing.T) {
	d := fastDomain(t, 3)
	c := coordinatorFor(d)
	newGroup(t, d, c, 3, factoryV(1, nil, nil))

	members := d.Node(0).RM.Members(grpObj)
	if len(members) != 3 {
		t.Fatalf("members = %v, want 3", members)
	}
	newest := members[len(members)-1]

	v, err := c.Shrink(grpObj)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Members) != 2 {
		t.Fatalf("view members = %v, want 2", v.Members)
	}
	if memberSet(v.Members)[newest] {
		t.Fatalf("newest member %s survived the shrink: %v", newest, v.Members)
	}
	for i := 0; i < d.Nodes(); i++ {
		rm := d.Node(i).RM
		if err := rm.WaitForView(grpObj, v.Number, syncedTimeout); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nv, _ := rm.View(grpObj)
		if nv.Number != v.Number || len(nv.Members) != len(v.Members) {
			t.Fatalf("node %d installed view %d %v, want %d %v", i, nv.Number, nv.Members, v.Number, v.Members)
		}
	}

	if _, err := c.Shrink(grpObj); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Shrink(grpObj); !errors.Is(err, ftmgmt.ErrLastReplica) {
		t.Fatalf("shrink to zero: err = %v, want ErrLastReplica", err)
	}
}

// TestReplacePackedDomainPreservesState replaces a member when every
// host already holds a replica, forcing the evict-first path where the
// freed host is reused and state is donated by the survivor.
func TestReplacePackedDomainPreservesState(t *testing.T) {
	d := fastDomain(t, 2)
	c := coordinatorFor(d)
	newGroup(t, d, c, 2, factoryV(1, nil, nil))

	const ops = 5
	reqID := uint32(0)
	for i := 0; i < ops; i++ {
		reqID++
		invokeInt(t, d, 0, reqID, "bump")
	}

	old := d.Node(0).RM.Members(grpObj)[0]
	v, err := c.Replace(grpObj, old)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Members) != 2 {
		t.Fatalf("view members = %v, want 2", v.Members)
	}
	if !memberSet(v.Members)[old] {
		t.Fatalf("freed host %s was not reused: %v", old, v.Members)
	}

	reqID++
	if got := invokeInt(t, d, 0, reqID, "bump"); got != ops+1 {
		t.Fatalf("post-replace ops = %d, want %d", got, ops+1)
	}

	if _, err := c.Replace(grpObj, memnet.NodeID("reconfig-nope")); !errors.Is(err, ftmgmt.ErrNotMember) {
		t.Fatalf("replace non-member: err = %v, want ErrNotMember", err)
	}
}

// TestRollingUpgradeCarriesState upgrades every replica of a live group
// and verifies both the version change and the carried operation count.
func TestRollingUpgradeCarriesState(t *testing.T) {
	d := fastDomain(t, 3)
	c := coordinatorFor(d)
	newGroup(t, d, c, 2, factoryV(1, nil, nil))

	const ops = 3
	reqID := uint32(0)
	for i := 0; i < ops; i++ {
		reqID++
		invokeInt(t, d, 0, reqID, "bump")
	}
	if got := invokeInt(t, d, 0, 100, "version"); got != 1 {
		t.Fatalf("pre-upgrade version = %d, want 1", got)
	}

	v, err := c.RollingUpgrade(grpObj, factoryV(2, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Members) != 2 {
		t.Fatalf("view members = %v, want degree preserved at 2", v.Members)
	}

	if got := invokeInt(t, d, 0, 101, "version"); got != 2 {
		t.Fatalf("post-upgrade version = %d, want 2", got)
	}
	reqID++
	if got := invokeInt(t, d, 0, reqID, "bump"); got != ops+1 {
		t.Fatalf("post-upgrade ops = %d, want %d", got, ops+1)
	}
}

// TestCoordinatorMetrics checks the operation counters and per-group
// view gauge surface through the registry.
func TestCoordinatorMetrics(t *testing.T) {
	d := fastDomain(t, 3)
	c := coordinatorFor(d)
	reg := obs.NewRegistry()
	c.Instrument(reg, nil)
	newGroup(t, d, c, 3, factoryV(1, nil, nil)) // two operator grows

	if _, err := c.Shrink(grpObj); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"eternalgw_reconfig_grows_total 2",
		"eternalgw_reconfig_shrinks_total 1",
		"eternalgw_reconfig_failures_total 0",
		`eternalgw_reconfig_group_view{group="400"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
