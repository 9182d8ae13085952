package replication

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/memnet"
	"eternalgw/internal/totem"
)

// domain is a test harness: a memnet network, a totem ring, and one
// Mechanisms instance per node.
type domain struct {
	t     *testing.T
	net   *memnet.Network
	ids   []memnet.NodeID
	nodes map[memnet.NodeID]*totem.Node
	rms   map[memnet.NodeID]*Mechanisms
}

func newDomain(t *testing.T, n int, opts ...memnet.Option) *domain {
	t.Helper()
	d := &domain{
		t:     t,
		net:   memnet.New(opts...),
		nodes: make(map[memnet.NodeID]*totem.Node, n),
		rms:   make(map[memnet.NodeID]*Mechanisms, n),
	}
	for i := 0; i < n; i++ {
		d.ids = append(d.ids, memnet.NodeID(fmt.Sprintf("n%02d", i)))
	}
	for _, id := range d.ids {
		ep, err := d.net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		node, err := totem.Start(totem.Config{
			ID:              id,
			Endpoint:        ep,
			Members:         d.ids,
			IdleHold:        100 * time.Microsecond,
			TokenRetransmit: 10 * time.Millisecond,
			FailTimeout:     80 * time.Millisecond,
			GatherTimeout:   20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.nodes[id] = node
		rm, err := New(Config{Node: node})
		if err != nil {
			t.Fatal(err)
		}
		d.rms[id] = rm
	}
	t.Cleanup(func() {
		for _, rm := range d.rms {
			rm.Stop()
		}
		for _, node := range d.nodes {
			node.Stop()
		}
	})
	return d
}

// mustCreate creates a group from the first node and waits until every
// node has it.
func (d *domain) mustCreate(id GroupID, style Style, key string) {
	d.t.Helper()
	if err := d.rms[d.ids[0]].CreateGroup(id, style, []byte(key)); err != nil {
		d.t.Fatal(err)
	}
	for _, n := range d.ids {
		if err := d.rms[n].WaitForGroup(id, 5*time.Second); err != nil {
			d.t.Fatalf("%s: wait group %d: %v", n, id, err)
		}
	}
}

// mustJoin joins node n to group id hosting app and waits until synced.
func (d *domain) mustJoin(n memnet.NodeID, id GroupID, app Application) {
	d.t.Helper()
	if err := d.rms[n].JoinGroup(id, app); err != nil {
		d.t.Fatal(err)
	}
	if err := d.rms[n].WaitSynced(id, 5*time.Second); err != nil {
		d.t.Fatalf("%s: wait synced %d: %v", n, id, err)
	}
}

// directoryAwaiting reports whether the processor's directory is awaiting
// a snapshot of the kept history's.
func directoryAwaiting(m *Mechanisms) bool { return m.Stats().DirectoryAwaiting }

// regApp is a deterministic register application: "set"/"append" mutate a
// byte string, "read" returns it, "count" returns the op count.
type regApp struct {
	mu    sync.Mutex
	value []byte
	ops   int64
}

func (a *regApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch op {
	case "set":
		a.value = append([]byte(nil), args.ReadOctetSeq()...)
		a.ops++
		reply.WriteLongLong(a.ops)
		return args.Err()
	case "append":
		a.value = append(a.value, args.ReadOctetSeq()...)
		a.ops++
		reply.WriteLongLong(a.ops)
		return args.Err()
	case "read":
		reply.WriteOctetSeq(a.value)
		return nil
	case "count":
		reply.WriteLongLong(a.ops)
		return nil
	default:
		return fmt.Errorf("regApp: unknown op %q", op)
	}
}

func (a *regApp) State() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteLongLong(a.ops)
	w.WriteOctetSeq(a.value)
	return w.Bytes(), nil
}

func (a *regApp) SetState(state []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := cdr.NewReader(state, cdr.BigEndian)
	a.ops = r.ReadLongLong()
	a.value = append([]byte(nil), r.ReadOctetSeq()...)
	return r.Err()
}

// snapshot returns the app's value for direct assertions.
func (a *regApp) snapshot() ([]byte, int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]byte(nil), a.value...), a.ops
}

func octets(b []byte) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteOctetSeq(b)
	return w.Bytes()
}

// startTotem boots a totem node with test timeouts.
func startTotem(t *testing.T, id memnet.NodeID, ep totem.Transport, members []memnet.NodeID) (*totem.Node, error) {
	t.Helper()
	node, err := totem.Start(totem.Config{
		ID:              id,
		Endpoint:        ep,
		Members:         members,
		IdleHold:        100 * time.Microsecond,
		TokenRetransmit: 10 * time.Millisecond,
		FailTimeout:     80 * time.Millisecond,
		GatherTimeout:   20 * time.Millisecond,
	})
	if err == nil {
		t.Cleanup(node.Stop)
	}
	return node, err
}
