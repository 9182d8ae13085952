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
	log    *obs.Logger // nil until Instrument
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
func (m *Manager) Instrument(reg *obs.Registry, log *obs.Logger) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reg = reg
	m.log = log.With("ftmgmt")
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
// creates the object group and places the initial replicas on the least
// loaded processors, waiting for each to synchronize.
func (m *Manager) CreateReplicatedObject(id replication.GroupID, props Properties, factory Factory) error {
	if props.InitialReplicas <= 0 || props.MinReplicas < 0 || props.MinReplicas > props.InitialReplicas {
		return fmt.Errorf("%w: initial=%d min=%d", ErrBadProps, props.InitialReplicas, props.MinReplicas)
	}
	rm, err := m.anyRM()
	if err != nil {
		return err
	}
	if err := rm.CreateGroup(id, props.Style, props.ObjectKey); err != nil {
		return err
	}
	m.mu.Lock()
	m.groups[id] = managedGroup{props: props, factory: factory}
	reg, hostCount := m.reg, len(m.hosts)
	m.mu.Unlock()
	m.registerGroupGauges(reg, id)
	m.log.Infof("group %d: %s, initial=%d min=%d", id, props.Style, props.InitialReplicas, props.MinReplicas)
	if props.InitialReplicas > hostCount {
		return fmt.Errorf("%w: need %d hosts, have %d", ErrNoHosts, props.InitialReplicas, hostCount)
	}
	if err := rm.WaitForGroup(id, syncTimeout); err != nil {
		return err
	}
	for i := 0; i < props.InitialReplicas; i++ {
		if err := m.placeOne(id, factory); err != nil {
			return err
		}
	}
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
				m.log.Warnf("group %d: replacement failed: %v", id, err)
				break // no host available now; retry next tick
			}
			m.replacements.Add(1)
			m.log.Infof("group %d: replacement replica started (%d/%d live)",
				id, m.live(rm, id), g.props.MinReplicas)
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

// Upgrade is the historical name of RollingUpgrade, kept for callers of
// the original Evolution Manager interface.
func (m *Manager) Upgrade(id replication.GroupID, factory Factory) error {
	_, err := m.RollingUpgrade(id, factory)
	return err
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
