// Package reconfig implements online reconfiguration of the replica and
// gateway groups of a fault tolerance domain: numbered membership views
// driven through the totem/replication total order, and the elasticity
// operations built on them — grow, shrink, replace and rolling upgrade
// of a live group under traffic.
//
// A view change is just another totally-ordered message (replication's
// KindJoinGroup / KindLeaveGroup / KindViewChange), so every replica
// installs the same numbered view at the same sequence number; there is
// no separate agreement round. A joining replica catches up by state
// transfer: the donor sends its latest application checkpoint plus the
// logged invocations after it (internal/logrec), and the joiner replays
// only that bounded suffix — never history from zero (the checkpoint +
// message-log recovery shape of the Eternal papers).
//
// The coordinator is mechanism, not policy: it executes one membership
// operation at a time against the replication layer. Policy — which
// groups exist, what their factories are, when to reconfigure — stays
// with ftmgmt.Manager, which drives this package.
package reconfig

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
	"eternalgw/internal/replication"
)

// Errors reported by the coordinator.
var (
	ErrNoHosts     = errors.New("reconfig: no hosts available")
	ErrNotMember   = errors.New("reconfig: node is not a member of the group")
	ErrLastReplica = errors.New("reconfig: refusing to remove the last replica")
)

// Factory creates a fresh application instance for a replica.
type Factory func() (replication.Application, error)

// Host is one processor available for replica placement.
type Host struct {
	ID memnet.NodeID
	RM *replication.Mechanisms
}

// Coordinator executes membership operations against a domain's
// replication layer. Operations on one coordinator are serialized: each
// grow/shrink/replace step is an ordered view change, and overlapping
// operations on the same group would race each other's placement
// decisions.
type Coordinator struct {
	mu      sync.Mutex
	hosts   []Host
	timeout time.Duration
	log     *obs.Logger // nil until Instrument
	reg     *obs.Registry
	gauged  map[replication.GroupID]bool

	opMu sync.Mutex // serializes membership operations

	grows           atomic.Uint64
	shrinks         atomic.Uint64
	replaces        atomic.Uint64
	rollingUpgrades atomic.Uint64
	failures        atomic.Uint64
}

// New creates a coordinator over the given hosts. timeout bounds each
// synchronization step (state transfer, view installation); zero means
// 10s.
func New(timeout time.Duration, hosts ...Host) *Coordinator {
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	return &Coordinator{
		hosts:   append([]Host(nil), hosts...),
		timeout: timeout,
		gauged:  make(map[replication.GroupID]bool),
	}
}

// Instrument connects the coordinator to the observability subsystem:
// operation counters plus a per-group view-number gauge registered for
// every group the coordinator touches. Nil arguments are no-ops.
func (c *Coordinator) Instrument(reg *obs.Registry, log *obs.Logger) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg = reg
	c.log = log.With("reconfig")
	if reg == nil {
		return
	}
	for _, m := range []struct {
		name, help string
		fn         func() uint64
	}{
		{"eternalgw_reconfig_grows_total", "Grow operations completed (one replica added).", c.grows.Load},
		{"eternalgw_reconfig_shrinks_total", "Shrink operations completed (one replica evicted).", c.shrinks.Load},
		{"eternalgw_reconfig_replaces_total", "Replace operations completed (one replica swapped for a fresh one).", c.replaces.Load},
		{"eternalgw_reconfig_rolling_upgrades_total", "Rolling upgrades completed (every replica of a group replaced).", c.rollingUpgrades.Load},
		{"eternalgw_reconfig_failures_total", "Reconfiguration operations that failed partway.", c.failures.Load},
	} {
		reg.CounterFunc(m.name, m.help, nil, m.fn)
	}
}

// gaugeGroup publishes the view number of one group. Callers hold mu.
func (c *Coordinator) gaugeGroup(id replication.GroupID) {
	if c.reg == nil || c.gauged[id] || len(c.hosts) == 0 {
		return
	}
	c.gauged[id] = true
	rm := c.hosts[0].RM
	c.reg.GaugeFunc("eternalgw_reconfig_group_view",
		"Current membership view number of a reconfigured object group.",
		obs.Labels{"group": fmt.Sprintf("%d", id)},
		func() float64 {
			v, _ := rm.View(id)
			return float64(v.Number)
		})
}

// AddHost makes a processor available for placement.
func (c *Coordinator) AddHost(h Host) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, existing := range c.hosts {
		if existing.ID == h.ID {
			return
		}
	}
	c.hosts = append(c.hosts, h)
}

// RemoveHost withdraws a processor from placement decisions.
func (c *Coordinator) RemoveHost(id memnet.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.hosts[:0]
	for _, h := range c.hosts {
		if h.ID != id {
			kept = append(kept, h)
		}
	}
	c.hosts = kept
}

// anyRM returns some host's mechanisms for domain-wide queries.
func (c *Coordinator) anyRM() (*replication.Mechanisms, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.hosts) == 0 {
		return nil, ErrNoHosts
	}
	return c.hosts[0].RM, nil
}

func (c *Coordinator) hostByID(id memnet.NodeID) (Host, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range c.hosts {
		if h.ID == id {
			return h, true
		}
	}
	return Host{}, false
}

// load counts replicas placed on each host across every group in the
// directory.
func (c *Coordinator) load(rm *replication.Mechanisms) map[memnet.NodeID]int {
	out := make(map[memnet.NodeID]int)
	for _, id := range rm.Groups() {
		for _, node := range rm.Members(id) {
			out[node]++
		}
	}
	return out
}

// candidates returns hosts ordered by ascending load (ties by id),
// excluding the given nodes.
func (c *Coordinator) candidates(rm *replication.Mechanisms, exclude map[memnet.NodeID]bool) []Host {
	loads := c.load(rm)
	c.mu.Lock()
	hosts := append([]Host(nil), c.hosts...)
	c.mu.Unlock()
	var out []Host
	for _, h := range hosts {
		if !exclude[h.ID] {
			out = append(out, h)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if loads[out[i].ID] != loads[out[j].ID] {
			return loads[out[i].ID] < loads[out[j].ID]
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// addReplica starts one replica of the group on the least loaded
// non-member host and waits until it has caught up (state transferred,
// view installed). It returns the view the join produced.
func (c *Coordinator) addReplica(id replication.GroupID, factory Factory) (replication.View, error) {
	rm, err := c.anyRM()
	if err != nil {
		return replication.View{}, err
	}
	exclude := make(map[memnet.NodeID]bool)
	for _, node := range rm.Members(id) {
		exclude[node] = true
	}
	for _, h := range c.candidates(rm, exclude) {
		app, err := factory()
		if err != nil {
			return replication.View{}, fmt.Errorf("reconfig: factory for group %d: %w", id, err)
		}
		if err := h.RM.JoinGroup(id, app); err != nil {
			continue // e.g. a racing join; try the next host
		}
		if err := h.RM.WaitSynced(id, c.timeout); err != nil {
			return replication.View{}, fmt.Errorf("reconfig: replica of group %d on %s: %w", id, h.ID, err)
		}
		v, _ := h.RM.View(id)
		return v, nil
	}
	return replication.View{}, fmt.Errorf("group %d: %w", id, ErrNoHosts)
}

// evict removes one member through an ordered view change and waits
// until the evicted node itself and the coordinator's directory have
// installed the new view (so its host slot is immediately reusable for
// a re-join).
func (c *Coordinator) evict(id replication.GroupID, node memnet.NodeID) (replication.View, error) {
	rm, err := c.anyRM()
	if err != nil {
		return replication.View{}, err
	}
	waitOn := rm
	if h, ok := c.hostByID(node); ok {
		waitOn = h.RM
	}
	prev, ok := waitOn.View(id)
	if !ok {
		return replication.View{}, fmt.Errorf("group %d: %w", id, replication.ErrNoSuchGroup)
	}
	if err := rm.EvictMembers(id, node); err != nil {
		return replication.View{}, err
	}
	if err := waitOn.WaitForView(id, prev.Number+1, c.timeout); err != nil {
		return replication.View{}, fmt.Errorf("reconfig: evict %s from group %d: %w", node, id, err)
	}
	v, _ := waitOn.View(id)
	if waitOn != rm {
		// Placement reads membership from rm's directory: it must have
		// installed the view too, or the evicted host still counts as a
		// member and is not offered for the re-join.
		if err := rm.WaitForView(id, v.Number, c.timeout); err != nil {
			return replication.View{}, fmt.Errorf("reconfig: evict %s from group %d: %w", node, id, err)
		}
	}
	return v, nil
}

// AddReplica starts one replica on the least loaded non-member host and
// waits for it to catch up, like Grow, but without counting the
// operation: it is the placement primitive the Resource Manager uses for
// failure replacements, which are accounted separately from operator
// grows.
func (c *Coordinator) AddReplica(id replication.GroupID, factory Factory) (replication.View, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	return c.addReplica(id, factory)
}

// Grow adds one replica to the group on the least loaded non-member
// host, returning the view the join produced.
func (c *Coordinator) Grow(id replication.GroupID, factory Factory) (replication.View, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	c.mu.Lock()
	c.gaugeGroup(id)
	c.mu.Unlock()
	v, err := c.addReplica(id, factory)
	if err != nil {
		c.failures.Add(1)
		return v, err
	}
	c.grows.Add(1)
	c.log.Infof("group %d: grew to %d replicas (view %d)", id, len(v.Members), v.Number)
	return v, nil
}

// Shrink evicts the group's newest replica (the last in join order, so
// the primary of passive groups is disturbed last), returning the view
// the eviction produced.
func (c *Coordinator) Shrink(id replication.GroupID) (replication.View, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	c.mu.Lock()
	c.gaugeGroup(id)
	c.mu.Unlock()
	rm, err := c.anyRM()
	if err != nil {
		return replication.View{}, err
	}
	members := rm.Members(id)
	if len(members) == 0 {
		return replication.View{}, fmt.Errorf("group %d: %w", id, replication.ErrNoSuchGroup)
	}
	if len(members) == 1 {
		return replication.View{}, fmt.Errorf("group %d: %w", id, ErrLastReplica)
	}
	v, err := c.evict(id, members[len(members)-1])
	if err != nil {
		c.failures.Add(1)
		return v, err
	}
	c.shrinks.Add(1)
	c.log.Infof("group %d: shrank to %d replicas (view %d)", id, len(v.Members), v.Number)
	return v, nil
}

// Replace swaps one member of the group for a fresh replica built by
// factory, preserving the group's state through checkpoint + log-replay
// transfer. With a spare host available the replacement joins (and
// catches up) before the old member is evicted, so the replication
// degree never drops; on a fully packed domain the old member is
// evicted first and its host immediately reused, which requires at
// least one surviving replica to donate state.
func (c *Coordinator) Replace(id replication.GroupID, old memnet.NodeID, factory Factory) (replication.View, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	v, err := c.replaceLocked(id, old, factory)
	if err != nil {
		c.failures.Add(1)
		return v, err
	}
	c.replaces.Add(1)
	return v, nil
}

func (c *Coordinator) replaceLocked(id replication.GroupID, old memnet.NodeID, factory Factory) (replication.View, error) {
	c.mu.Lock()
	c.gaugeGroup(id)
	c.mu.Unlock()
	rm, err := c.anyRM()
	if err != nil {
		return replication.View{}, err
	}
	members := rm.Members(id)
	isMember := false
	for _, node := range members {
		if node == old {
			isMember = true
			break
		}
	}
	if !isMember {
		return replication.View{}, fmt.Errorf("group %d, node %s: %w", id, old, ErrNotMember)
	}
	c.mu.Lock()
	spare := len(c.hosts) > len(members)
	c.mu.Unlock()
	if !spare && len(members) == 1 {
		// Evict-first would lose the only copy of the state and
		// grow-first has nowhere to place: a packed singleton cannot be
		// replaced online.
		return replication.View{}, fmt.Errorf("group %d: replacing the only replica needs a spare host: %w", id, ErrNoHosts)
	}
	if spare {
		if _, err := c.addReplica(id, factory); err != nil {
			return replication.View{}, err
		}
		v, err := c.evict(id, old)
		if err != nil {
			return v, err
		}
		c.log.Infof("group %d: replaced %s (view %d)", id, old, v.Number)
		return v, nil
	}
	if _, err := c.evict(id, old); err != nil {
		return replication.View{}, err
	}
	v, err := c.addReplica(id, factory)
	if err != nil {
		return v, err
	}
	c.log.Infof("group %d: replaced %s in place (view %d)", id, old, v.Number)
	return v, nil
}

// RollingUpgrade replaces every replica of the group with instances from
// factory, one at a time, under live traffic: each replacement catches
// up by checkpoint + log replay before the next old replica retires, so
// the group keeps executing (and never shrinks below its degree when a
// spare host is available). The new application must accept the old
// application's state encoding.
func (c *Coordinator) RollingUpgrade(id replication.GroupID, factory Factory) (replication.View, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	rm, err := c.anyRM()
	if err != nil {
		return replication.View{}, err
	}
	old := rm.Members(id)
	if len(old) == 0 {
		return replication.View{}, fmt.Errorf("group %d: %w", id, replication.ErrNoSuchGroup)
	}
	var v replication.View
	for _, node := range old {
		if v, err = c.replaceLocked(id, node, factory); err != nil {
			c.failures.Add(1)
			return v, fmt.Errorf("reconfig: rolling upgrade of group %d at %s: %w", id, node, err)
		}
	}
	c.rollingUpgrades.Add(1)
	c.log.Infof("group %d: rolling upgrade complete, %d replicas replaced (view %d)", id, len(old), v.Number)
	return v, nil
}
