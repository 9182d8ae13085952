// Package ftmgmt implements the management objects of the Eternal fault
// tolerance infrastructure (paper section 2, figure 2):
//
//   - the Replication Manager, which replicates each application object
//     according to its user-specified fault tolerance properties
//     (replication style, initial and minimum numbers of replicas) and
//     distributes the replicas across the processors of the domain;
//   - the Resource Manager, which monitors the domain and maintains the
//     minimum number of replicas by starting replacements after failures;
//   - the Evolution Manager, which exploits replication to upgrade
//     application objects without taking them down.
//
// In the original system these managers are themselves replicated CORBA
// objects invoked through the infrastructure; here they run as a library
// driving the per-node replication mechanisms directly, which preserves
// their observable behaviour (placement, replacement, live upgrade) at
// laptop scale (see DESIGN.md section 2).
//
// One Manager owns the domain's one list of processors. This file is
// policy: which groups exist, what their factories are, and when
// membership must change. The mechanics of a membership change — ordered
// view installation, checkpoint + log-replay state transfer, placement
// on the least loaded host — are in reconfig.go, and serve initial
// placement, failure replacement, elasticity (Grow/Shrink/Replace) and
// live upgrades alike.
package ftmgmt

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
	"eternalgw/internal/replication"
)

// Errors reported by the managers.
var (
	ErrNoHosts      = errors.New("ftmgmt: no hosts available")
	ErrUnknownGroup = errors.New("ftmgmt: group not managed")
	ErrBadProps     = errors.New("ftmgmt: invalid fault tolerance properties")
	ErrMinReplicas  = errors.New("ftmgmt: shrink would violate the minimum replica count")
	ErrNotMember    = errors.New("reconfig: node is not a member of the group")
	ErrLastReplica  = errors.New("reconfig: refusing to remove the last replica")
)

// syncTimeout bounds each synchronization step of a membership change
// (group creation, state transfer, view installation).
const syncTimeout = 10 * time.Second

// Properties are the user-specified fault tolerance properties of one
// replicated object.
type Properties struct {
	Style replication.Style
	// InitialReplicas is the number of replicas created up front.
	InitialReplicas int
	// MinReplicas is the floor the Resource Manager maintains.
	MinReplicas int
	// ObjectKey is the CORBA object key clients embed in requests.
	ObjectKey []byte
	// TypeID is the repository id used when publishing IORs.
	TypeID string
}

// Factory creates a fresh application instance for a replica.
type Factory func() (replication.Application, error)

// Host is one processor available for replica placement.
type Host struct {
	ID memnet.NodeID
	RM *replication.Mechanisms
}

// managedGroup records what the managers know about one group.
type managedGroup struct {
	props   Properties
	factory Factory
}

// Manager combines the Replication, Resource and Evolution Managers for
// one fault tolerance domain. Membership operations on one manager are
// serialized: each grow/shrink/replace step is an ordered view change,
// and overlapping operations on the same group would race each other's
// placement decisions.
type Manager struct {
	mu     sync.Mutex // guards hosts, groups, reg, log
	hosts  []Host
	groups map[replication.GroupID]managedGroup
	log    *slog.Logger
	reg    *obs.Registry

	opMu sync.Mutex // serializes membership operations

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	replacements atomic.Uint64 // replicas started by the Resource Manager
	grows        atomic.Uint64
	shrinks      atomic.Uint64
	replaces     atomic.Uint64
	upgrades     atomic.Uint64 // rolling upgrades completed
	failures     atomic.Uint64 // membership operations that failed partway
}

// NewManager creates a manager over the given hosts.
func NewManager(hosts ...Host) *Manager {
	m := &Manager{
		hosts:  append([]Host(nil), hosts...),
		groups: make(map[replication.GroupID]managedGroup),
		log:    obs.ComponentLogger(nil, "ftmgmt"),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	close(m.done) // no monitor running yet
	return m
}

// Instrument connects the managers to the observability subsystem:
// operation counters, plus a replica-count gauge and a view-number gauge
// registered for every group created afterwards. Call before
// CreateReplicatedObject; safe to skip entirely (nil arguments are
// no-ops).
func (m *Manager) Instrument(reg *obs.Registry, log *slog.Logger) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reg = reg
	m.log = obs.ComponentLogger(log, "ftmgmt")
	for _, c := range []struct {
		name, help string
		fn         func() uint64
	}{
		{"eternalgw_ftmgmt_replacements_total", "Replacement replicas started by the Resource Manager.", m.replacements.Load},
		{"eternalgw_ftmgmt_upgrades_total", "Live upgrades completed by the Evolution Manager.", m.upgrades.Load},
		{"eternalgw_reconfig_grows_total", "Grow operations completed (one replica added).", m.grows.Load},
		{"eternalgw_reconfig_shrinks_total", "Shrink operations completed (one replica evicted).", m.shrinks.Load},
		{"eternalgw_reconfig_replaces_total", "Replace operations completed (one replica swapped for a fresh one).", m.replaces.Load},
		{"eternalgw_reconfig_rolling_upgrades_total", "Rolling upgrades completed (every replica of a group replaced).", m.upgrades.Load},
		{"eternalgw_reconfig_failures_total", "Reconfiguration operations that failed partway.", m.failures.Load},
	} {
		reg.CounterFunc(c.name, c.help, nil, c.fn)
	}
}

// registerGroupGauges publishes the live replica count and the view
// number of one managed group. Both resolve the mechanisms they read at
// scrape time, so they follow the host list across RemoveHost instead of
// reading a withdrawn processor's directory forever.
func (m *Manager) registerGroupGauges(reg *obs.Registry, id replication.GroupID) {
	labels := obs.Labels{"group": fmt.Sprintf("%d", id)}
	scrape := func(read func(*replication.Mechanisms) float64) func() float64 {
		return func() float64 {
			rm, err := m.anyRM()
			if err != nil {
				return 0
			}
			return read(rm)
		}
	}
	reg.GaugeFunc("eternalgw_ftmgmt_group_replicas",
		"Live replicas of a managed object group.", labels,
		scrape(func(rm *replication.Mechanisms) float64 { return float64(len(rm.Members(id))) }))
	reg.GaugeFunc("eternalgw_reconfig_group_view",
		"Current membership view number of a reconfigured object group.", labels,
		scrape(func(rm *replication.Mechanisms) float64 {
			v, _ := rm.View(id)
			return float64(v.Number)
		}))
}

// RemoveHost withdraws a processor from placement decisions (it does not
// stop replicas already running there) and immediately runs a Resource
// Manager pass: a host is usually withdrawn because it failed, and any
// group that lost a replica with it must be repaired now, not at the
// next Monitor tick.
func (m *Manager) RemoveHost(id memnet.NodeID) {
	m.mu.Lock()
	kept := m.hosts[:0]
	for _, h := range m.hosts {
		if h.ID != id {
			kept = append(kept, h)
		}
	}
	m.hosts = kept
	m.mu.Unlock()
	m.reconcile()
}

// anyRM returns the mechanisms of the first processor still in the host
// list whose group directory is the domain's, for domain-wide queries:
// every such directory is fed by the same total order, so any one will
// do — but not one that is awaiting a snapshot, which still holds what
// its processor knew before it was away.
func (m *Manager) anyRM() (*replication.Mechanisms, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, h := range m.hosts {
		if !h.RM.Stats().DirectoryAwaiting {
			return h.RM, nil
		}
	}
	return nil, ErrNoHosts
}

// CreateReplicatedObject is the Replication Manager's entry point: it
// creates the object group with its initial replicas on the least loaded
// processors, all in one view. Each founder's replica is armed on its
// processor, then one processor orders the creation and one delta adding
// every founder, back to back: the founders are live where that delta is
// delivered, owed no state transfer, and the first of them is a passive
// group's primary. A creation refused before anything is ordered — for
// want of hosts, or a founder that cannot arm — leaves nothing behind: no
// directory lists the group, no processor holds an armed replica, and the
// Resource Manager does not manage it. A founder that left the ring
// before the delta was ordered is not added (replication's applyView);
// the Resource Manager restores the group's minimum.
func (m *Manager) CreateReplicatedObject(id replication.GroupID, props Properties, factory Factory) error {
	if props.InitialReplicas <= 0 || props.MinReplicas < 0 || props.MinReplicas > props.InitialReplicas {
		return fmt.Errorf("%w: initial=%d min=%d", ErrBadProps, props.InitialReplicas, props.MinReplicas)
	}
	rm, err := m.anyRM()
	if err != nil {
		return err
	}
	m.opMu.Lock()
	defer m.opMu.Unlock()
	founders := m.candidates(rm, nil)
	if props.InitialReplicas > len(founders) {
		return fmt.Errorf("%w: need %d hosts, have %d", ErrNoHosts, props.InitialReplicas, len(founders))
	}
	founders = founders[:props.InitialReplicas]
	if err := arm(id, founders, factory); err != nil {
		return err
	}
	ids := make([]memnet.NodeID, len(founders))
	for i, h := range founders {
		ids[i] = h.ID
	}
	err = rm.CreateGroup(id, props.Style, props.ObjectKey)
	if err == nil {
		err = rm.AddMembers(id, ids...)
	}
	if err != nil {
		// The creation may be ordered all the same; nobody is armed for it.
		disarm(id, founders)
		return err
	}
	m.mu.Lock()
	m.groups[id] = managedGroup{props: props, factory: factory}
	reg := m.reg
	m.mu.Unlock()
	m.registerGroupGauges(reg, id)
	m.log.Info("group founded", "group", id, "style", props.Style, "initial", props.InitialReplicas, "min", props.MinReplicas, "hosts", ids)
	if err := rm.WaitForView(id, 2, syncTimeout); err != nil {
		return fmt.Errorf("ftmgmt: founding view of group %d: %w", id, err)
	}
	for _, h := range founders {
		if err := awaitFounder(rm, id, h); err != nil {
			return err
		}
	}
	return nil
}

// arm arms one replica from factory on every founder, or, failing on
// one, none.
func arm(id replication.GroupID, founders []Host, factory Factory) error {
	for i, h := range founders {
		app, err := factory()
		if err == nil {
			err = h.RM.Arm(id, app)
		}
		if err != nil {
			disarm(id, founders[:i])
			return fmt.Errorf("ftmgmt: founder %s of group %d: %w", h.ID, id, err)
		}
	}
	return nil
}

func disarm(id replication.GroupID, founders []Host) {
	for _, h := range founders {
		h.RM.Disarm(id)
	}
}

// founderPoll is how often awaitFounder looks again whether a founder it
// waits for is still listed.
const founderPoll = 10 * time.Millisecond

// awaitFounder waits until the founder's replica is live, for as long as
// rm's directory lists it: a founder that was never added, or that left
// the ring since, is waited for no longer, and what it armed is withdrawn.
func awaitFounder(rm *replication.Mechanisms, id replication.GroupID, h Host) error {
	deadline := time.Now().Add(syncTimeout)
	for slices.Contains(rm.Members(id), h.ID) {
		err := h.RM.WaitSynced(id, founderPoll)
		if err == nil {
			return nil
		}
		if !errors.Is(err, replication.ErrTimeout) || time.Now().After(deadline) {
			return fmt.Errorf("ftmgmt: founder %s of group %d: %w", h.ID, id, err)
		}
	}
	h.RM.Disarm(id)
	return nil
}

// Monitor starts the Resource Manager loop: every interval it compares
// each managed group's live membership with its minimum and starts
// replacement replicas as needed. Stop it with Close.
func (m *Manager) Monitor(interval time.Duration) {
	m.stopOnce = sync.Once{}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-ticker.C:
				m.reconcile()
			}
		}
	}()
}

// reconcile performs one Resource Manager pass.
func (m *Manager) reconcile() {
	m.mu.Lock()
	groups := make(map[replication.GroupID]managedGroup, len(m.groups))
	for id, g := range m.groups {
		groups[id] = g
	}
	m.mu.Unlock()
	rm, err := m.anyRM()
	if err != nil {
		return
	}
	for id, g := range groups {
		for m.live(rm, id) < g.props.MinReplicas {
			if err := m.placeOne(id, g.factory); err != nil {
				m.log.Warn("replacement failed", "group", id, "err", err)
				break // no host available now; retry next tick
			}
			m.replacements.Add(1)
			m.log.Info("replacement replica started", "group", id, "live", m.live(rm, id), "min", g.props.MinReplicas)
		}
	}
}

// live counts the group's members hosted on a listed processor. A member
// on a withdrawn one is lost already, whether or not the directory read
// has been delivered its eviction, so RemoveHost repairs at once.
func (m *Manager) live(rm *replication.Mechanisms, id replication.GroupID) int {
	n := 0
	for _, node := range rm.Members(id) {
		if _, ok := m.hostByID(node); ok {
			n++
		}
	}
	return n
}

// managed returns the managed-group record for id.
func (m *Manager) managed(id replication.GroupID) (managedGroup, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.groups[id]
	if !ok {
		return g, fmt.Errorf("group %d: %w", id, ErrUnknownGroup)
	}
	return g, nil
}

// Properties returns the managed properties of a group.
func (m *Manager) Properties(id replication.GroupID) (Properties, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.groups[id]
	return g.props, ok
}

// Close stops the Resource Manager loop.
func (m *Manager) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}
