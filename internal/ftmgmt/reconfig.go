package ftmgmt

import (
	"fmt"
	"sort"
	"sync/atomic"

	"eternalgw/internal/memnet"
	"eternalgw/internal/replication"
)

// Online reconfiguration of a live group: numbered membership views
// driven through the totem/replication total order, and the elasticity
// operations built on them — grow, shrink, replace and rolling upgrade
// under traffic.
//
// A view change is just another totally-ordered message (replication's
// KindViewChange), so every replica installs the same numbered view at
// the same sequence number; there is no separate agreement round. A joining replica catches up by state
// transfer: the donor sends its latest application checkpoint plus the
// logged invocations after it (internal/logrec), and the joiner replays
// only that bounded suffix — never history from zero (the checkpoint +
// message-log recovery shape of the Eternal papers).

func (m *Manager) hostByID(id memnet.NodeID) (Host, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, h := range m.hosts {
		if h.ID == id {
			return h, true
		}
	}
	return Host{}, false
}

// candidates returns hosts ordered by ascending load — replicas placed
// on each across every group in rm's directory — with ties by id,
// excluding the given nodes.
func (m *Manager) candidates(rm *replication.Mechanisms, exclude map[memnet.NodeID]bool) []Host {
	loads := make(map[memnet.NodeID]int)
	for _, id := range rm.Groups() {
		for _, node := range rm.Members(id) {
			loads[node]++
		}
	}
	var out []Host
	m.mu.Lock()
	for _, h := range m.hosts {
		if !exclude[h.ID] {
			out = append(out, h)
		}
	}
	m.mu.Unlock()
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
// view installed). It returns the view the join produced. Callers hold
// opMu.
func (m *Manager) addReplica(id replication.GroupID, factory Factory) (replication.View, error) {
	rm, err := m.anyRM()
	if err != nil {
		return replication.View{}, err
	}
	exclude := make(map[memnet.NodeID]bool)
	for _, node := range rm.Members(id) {
		exclude[node] = true
	}
	for _, h := range m.candidates(rm, exclude) {
		app, err := factory()
		if err != nil {
			return replication.View{}, fmt.Errorf("reconfig: factory for group %d: %w", id, err)
		}
		if err := h.RM.JoinGroup(id, app); err != nil {
			continue // e.g. a racing join; try the next host
		}
		if err := h.RM.WaitSynced(id, syncTimeout); err != nil {
			return replication.View{}, fmt.Errorf("reconfig: replica of group %d on %s: %w", id, h.ID, err)
		}
		v, _ := h.RM.View(id)
		return v, nil
	}
	return replication.View{}, fmt.Errorf("group %d: %w", id, ErrNoHosts)
}

// evict removes one member through an ordered view change and waits
// until the evicted node itself and the directory placement reads have
// installed the new view (so its host slot is immediately reusable for
// a re-join). Callers hold opMu.
func (m *Manager) evict(id replication.GroupID, node memnet.NodeID) (replication.View, error) {
	rm, err := m.anyRM()
	if err != nil {
		return replication.View{}, err
	}
	waitOn := rm
	if h, ok := m.hostByID(node); ok {
		waitOn = h.RM
	}
	prev, ok := waitOn.View(id)
	if !ok {
		return replication.View{}, fmt.Errorf("group %d: %w", id, replication.ErrNoSuchGroup)
	}
	if err := rm.EvictMembers(id, node); err != nil {
		return replication.View{}, err
	}
	if err := waitOn.WaitForView(id, prev.Number+1, syncTimeout); err != nil {
		return replication.View{}, fmt.Errorf("reconfig: evict %s from group %d: %w", node, id, err)
	}
	v, _ := waitOn.View(id)
	if waitOn != rm {
		// Placement reads membership from rm's directory: it must have
		// installed the view too, or the evicted host still counts as a
		// member and is not offered for the re-join.
		if err := rm.WaitForView(id, v.Number, syncTimeout); err != nil {
			return replication.View{}, fmt.Errorf("reconfig: evict %s from group %d: %w", node, id, err)
		}
	}
	return v, nil
}

// placeOne starts one replica on the least loaded non-member host and
// waits for it to catch up, like Grow, but without counting the
// operation: it is the placement primitive for initial placement and the
// Resource Manager's failure replacements, which are accounted
// separately from operator grows.
func (m *Manager) placeOne(id replication.GroupID, factory Factory) error {
	m.opMu.Lock()
	defer m.opMu.Unlock()
	_, err := m.addReplica(id, factory)
	return err
}

// counted books the outcome of one operator-requested membership
// operation.
func (m *Manager) counted(done *atomic.Uint64, v replication.View, err error) (replication.View, error) {
	if err != nil {
		m.failures.Add(1)
		return v, err
	}
	done.Add(1)
	return v, nil
}

// Grow adds one replica of the managed group, built from its current
// factory, on the least loaded spare host, returning the view the join
// produced.
func (m *Manager) Grow(id replication.GroupID) (replication.View, error) {
	g, err := m.managed(id)
	if err != nil {
		return replication.View{}, err
	}
	m.opMu.Lock()
	defer m.opMu.Unlock()
	v, err := m.addReplica(id, g.factory)
	if err == nil {
		m.log.Infof("group %d: grew to %d replicas (view %d)", id, len(v.Members), v.Number)
	}
	return m.counted(&m.grows, v, err)
}

// Shrink evicts the group's newest replica (the last in join order, so
// the primary of passive groups is disturbed last), returning the view
// the eviction produced. It refuses to go below the group's minimum
// replica count (the Resource Manager would immediately undo such a
// shrink anyway) or to remove the last replica.
func (m *Manager) Shrink(id replication.GroupID) (replication.View, error) {
	g, err := m.managed(id)
	if err != nil {
		return replication.View{}, err
	}
	rm, err := m.anyRM()
	if err != nil {
		return replication.View{}, err
	}
	m.opMu.Lock()
	defer m.opMu.Unlock()
	members := rm.Members(id)
	switch live := len(members); {
	case live <= g.props.MinReplicas:
		return replication.View{}, fmt.Errorf("group %d: %d live, minimum %d: %w",
			id, live, g.props.MinReplicas, ErrMinReplicas)
	case live == 1:
		return replication.View{}, fmt.Errorf("group %d: %w", id, ErrLastReplica)
	}
	v, err := m.evict(id, members[len(members)-1])
	if err == nil {
		m.log.Infof("group %d: shrank to %d replicas (view %d)", id, len(v.Members), v.Number)
	}
	return m.counted(&m.shrinks, v, err)
}

// Replace swaps one member of the managed group for a fresh replica from
// its current factory, preserving the group's state through checkpoint +
// log-replay transfer. With a spare host available the replacement joins
// (and catches up) before the old member is evicted, so the replication
// degree never drops; on a fully packed domain the old member is evicted
// first and its host immediately reused, which requires at least one
// surviving replica to donate state.
func (m *Manager) Replace(id replication.GroupID, old memnet.NodeID) (replication.View, error) {
	g, err := m.managed(id)
	if err != nil {
		return replication.View{}, err
	}
	m.opMu.Lock()
	defer m.opMu.Unlock()
	v, err := m.replaceLocked(id, old, g.factory)
	return m.counted(&m.replaces, v, err)
}

func (m *Manager) replaceLocked(id replication.GroupID, old memnet.NodeID, factory Factory) (replication.View, error) {
	rm, err := m.anyRM()
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
	m.mu.Lock()
	spare := len(m.hosts) > len(members)
	m.mu.Unlock()
	if !spare && len(members) == 1 {
		// Evict-first would lose the only copy of the state and
		// grow-first has nowhere to place: a packed singleton cannot be
		// replaced online.
		return replication.View{}, fmt.Errorf("group %d: replacing the only replica needs a spare host: %w", id, ErrNoHosts)
	}
	if spare {
		if _, err := m.addReplica(id, factory); err != nil {
			return replication.View{}, err
		}
		v, err := m.evict(id, old)
		if err != nil {
			return v, err
		}
		m.log.Infof("group %d: replaced %s (view %d)", id, old, v.Number)
		return v, nil
	}
	if _, err := m.evict(id, old); err != nil {
		return replication.View{}, err
	}
	v, err := m.addReplica(id, factory)
	if err != nil {
		return v, err
	}
	m.log.Infof("group %d: replaced %s in place (view %d)", id, old, v.Number)
	return v, nil
}

// RollingUpgrade is the Evolution Manager's entry point: it replaces
// every replica of the group with instances from the new factory, one at
// a time, under live traffic: each replacement catches up by checkpoint
// + log replay before the next old replica retires, so the group keeps
// executing (and never shrinks below its degree when a spare host is
// available) — including on a fully packed domain, where each old
// replica is retired first and its host reused. The new application must
// accept the old application's state encoding.
func (m *Manager) RollingUpgrade(id replication.GroupID, factory Factory) (replication.View, error) {
	m.mu.Lock()
	g, ok := m.groups[id]
	if ok {
		g.factory = factory
		m.groups[id] = g
	}
	m.mu.Unlock()
	if !ok {
		return replication.View{}, fmt.Errorf("group %d: %w", id, ErrUnknownGroup)
	}
	rm, err := m.anyRM()
	if err != nil {
		return replication.View{}, err
	}
	m.opMu.Lock()
	defer m.opMu.Unlock()
	old := rm.Members(id)
	if len(old) == 0 {
		return replication.View{}, fmt.Errorf("group %d: %w", id, replication.ErrNoSuchGroup)
	}
	var v replication.View
	for _, node := range old {
		if v, err = m.replaceLocked(id, node, factory); err != nil {
			m.failures.Add(1)
			return v, fmt.Errorf("ftmgmt: rolling upgrade of group %d at %s: %w", id, node, err)
		}
	}
	m.upgrades.Add(1)
	m.log.Infof("group %d: rolling upgrade complete, %d replicas replaced (view %d)", id, len(old), v.Number)
	return v, nil
}
