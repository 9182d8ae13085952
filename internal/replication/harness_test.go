package replication

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
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
	return newDomainVia(t, n, nil, opts...)
}

// newDomainVia is newDomain with each member's endpoint handed to via,
// when it is set, for the transport the member's node runs over.
func newDomainVia(t *testing.T, n int, via func(memnet.NodeID, *memnet.Endpoint) totem.Transport, opts ...memnet.Option) *domain {
	t.Helper()
	return buildDomain(t, n, via, nil, opts...)
}

// newSteadyDomain is newDomain for a test whose premise is a ring that
// never reconfigures: with a failure timeout of a second, a member the
// machine stalls for a few tens of milliseconds stays in the ring, where
// at newDomain's 80 ms it can leave and come back behind the kept
// history's horizon, closing the replicas it hosted.
func newSteadyDomain(t *testing.T, n int) *domain {
	t.Helper()
	return buildDomain(t, n, nil, func(c *totem.Config) { c.FailTimeout = time.Second })
}

// buildDomain is newDomainVia with each member's totem configuration
// handed to tweak, when it is set.
func buildDomain(t *testing.T, n int, via func(memnet.NodeID, *memnet.Endpoint) totem.Transport, tweak func(*totem.Config), opts ...memnet.Option) *domain {
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
		var tr totem.Transport = ep
		if via != nil {
			tr = via(id, ep)
		}
		d.nodes[id], d.rms[id] = startNode(t, id, tr, d.ids, tweak)
	}
	return d
}

// multicastRequest conveys req one-way as a gateway does: the request
// marshalled behind the mechanisms' headroom, then MulticastFrame.
func multicastRequest(m *Mechanisms, src GroupID, clientID uint64, dst GroupID, op OperationID, req giop.Request) error {
	msg, err := giop.EncodeRequest(req.ArgsOrder, req)
	if err != nil {
		return err
	}
	room, _ := m.Headroom()
	return m.MulticastFrame(src, clientID, dst, op, append(make([]byte, room), giop.Marshal(msg)...))
}

// groupStyle reads a group's replication style from m's directory.
func groupStyle(m *Mechanisms, id GroupID) (Style, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	g, ok := m.groups[id]
	if !ok {
		return 0, false
	}
	return g.style, true
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

// startNode boots a totem node with test timeouts and mechanisms over it;
// the test's cleanup stops both.
func startNode(t *testing.T, id memnet.NodeID, ep totem.Transport, members []memnet.NodeID, tweaks ...func(*totem.Config)) (*totem.Node, *Mechanisms) {
	t.Helper()
	cfg := totem.Config{
		ID:              id,
		Endpoint:        ep,
		Members:         members,
		IdleHold:        100 * time.Microsecond,
		TokenRetransmit: 10 * time.Millisecond,
		FailTimeout:     80 * time.Millisecond,
		GatherTimeout:   20 * time.Millisecond,
	}
	for _, tweak := range tweaks {
		if tweak != nil {
			tweak(&cfg)
		}
	}
	node, err := totem.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	m, err := New(Config{Node: node})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return node, m
}
