// Package domain composes the substrates of this repository into
// runnable fault tolerance domains: a network (simulated unless a
// transport factory says otherwise), a Totem ring, a
// replication-mechanisms instance per processor, the management objects,
// and any number of gateways on the domain's edge. It is the only place
// a processor is assembled; every binary, benchmark and test that needs
// one calls New.
//
// A Domain is the paper's "fault tolerance domain": the domain of
// control of one fault tolerance infrastructure (paper section 1).
// Multiple domains, each with its own network and ring, can be bridged
// through their gateways exactly as in figure 1: a replicated bridge
// object inside one domain forwards invocations over TCP/IIOP to
// another domain's gateway.
package domain

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"eternalgw/internal/admission"
	"eternalgw/internal/core"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/interceptor"
	"eternalgw/internal/ior"
	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
)

// DefaultGatewayGroup is the object group id every gateway of a domain
// joins.
const DefaultGatewayGroup replication.GroupID = 1

// Config parameterizes a Domain.
type Config struct {
	// Name identifies the domain (e.g. "new-york").
	Name string
	// Nodes is the number of processors in the domain, with identities
	// minted by MemberIDs. Ignored when Members is set.
	Nodes int
	// Members, when set, is the domain's ring membership by explicit
	// identity — e.g. the ids of a udpnet registry. Every process of the
	// domain must configure the same list.
	Members []memnet.NodeID
	// Local, when set, names the members this process hosts; the others
	// run in other processes (or other Domain values) on the same
	// network. Unset means all of them. A Domain manages what it hosts:
	// Node, Manager placement, AddGateway, CrashNode and RestartNode see
	// local processors only, while the group directory, and so
	// invocations, span the whole ring.
	Local []memnet.NodeID
	// Totem overrides protocol timeouts; zero values use totem defaults.
	Totem totem.Config
	// GatewayInvokeTimeout bounds invocations forwarded by gateways.
	GatewayInvokeTimeout time.Duration
	// Admission, when set, is the admission-control template applied to
	// every gateway added with AddGateway: each gateway gets its own
	// controller built from a copy of this config, with the breaker's
	// backpressure signal defaulted to the hosting node's replication
	// mechanisms. Nil gives each gateway a controller with no limits and
	// no breaker: every connection and request is accepted until the
	// gateway drains.
	Admission *admission.Config
	// TransportFactory, when set, supplies each processor's network
	// attachment instead of the simulated in-process network — e.g.
	// udpnet endpoints for a domain running over real UDP sockets. The
	// fault-injection helpers (CrashNode, RestartNode) act on the
	// simulated network and therefore require the default transport.
	TransportFactory func(id memnet.NodeID) (totem.Transport, error)
	// Metrics, when set, is threaded into every layer of the domain:
	// totem protocol counters per node, replication mechanism counters
	// per node, management gauges, and gateway counters as gateways are
	// added.
	Metrics *obs.Registry
	// Tracer, when set, is threaded into the replication mechanisms and
	// gateways so one invocation's span events join across layers. Nil
	// disables tracing.
	Tracer *obs.Tracer
	// Log, when set, gives the domain's components a leveled logger;
	// each layer tags lines with its own component.
	Log *slog.Logger
	// OnIORUpdate, when set, is called with the object key and the
	// freshly stitched reference each time the domain republishes the
	// references it has handed out because the gateway set changed
	// (AddGateway, RemoveGateway). Enhanced thin clients feed the new
	// reference to RefreshProfiles so they fail over onto the surviving
	// profile set (paper section 3.5). Called from the reconfiguring
	// goroutine; keep it quick.
	OnIORUpdate func(objectKey []byte, ref ior.Ref)
}

// Node is one processor of the domain.
type Node struct {
	ID    memnet.NodeID
	Totem *totem.Node
	RM    *replication.Mechanisms
}

// Domain is a running fault tolerance domain.
type Domain struct {
	Name string
	Net  *memnet.Network

	cfg         Config
	nodes       []*Node
	manager     *ftmgmt.Manager
	syncTimeout time.Duration
	closed      bool

	mu        sync.Mutex // guards gateways, gwNode, published
	gateways  []*core.Gateway
	gwNode    map[*core.Gateway]int
	published map[string]string // object key -> type id, for republishing
}

// MemberIDs returns the identities New mints for a domain of n
// processors when Config.Members is unset: <name>/p00, <name>/p01, ...
func MemberIDs(name string, n int) []memnet.NodeID {
	ids := make([]memnet.NodeID, n)
	for i := range ids {
		ids[i] = memnet.NodeID(fmt.Sprintf("%s/p%02d", name, i))
	}
	return ids
}

// New builds and starts the processors of a domain that this process
// hosts: all cfg.Nodes of them unless cfg.Members and cfg.Local say
// otherwise. It is the one place a processor is assembled — transport,
// totem node, replication mechanisms, and (AddGateway) gateways.
func New(cfg Config) (*Domain, error) {
	if cfg.Name == "" {
		cfg.Name = "domain"
	}
	members := cfg.Members
	if len(members) == 0 {
		members = MemberIDs(cfg.Name, cfg.Nodes)
	}
	local := cfg.Local
	if len(local) == 0 {
		local = members
	}
	if len(local) == 0 {
		return nil, errors.New("domain: need at least one node")
	}
	d := &Domain{
		Name:      cfg.Name,
		Net:       memnet.New(),
		cfg:       cfg,
		gwNode:    make(map[*core.Gateway]int),
		published: make(map[string]string),

		syncTimeout: 10 * time.Second,
	}
	if len(local) < len(members) {
		// Members hosted elsewhere start on their own schedule, so waits
		// that need the rest of the ring get a deployment-scale bound.
		d.syncTimeout = 60 * time.Second
	}
	for _, id := range local {
		if !slices.Contains(members, id) {
			d.Close()
			return nil, fmt.Errorf("domain %s: local node %q is not among the members %v", cfg.Name, id, members)
		}
		var (
			ep  totem.Transport
			err error
		)
		if cfg.TransportFactory != nil {
			ep, err = cfg.TransportFactory(id)
		} else {
			ep, err = d.Net.Attach(id)
		}
		if err != nil {
			d.Close()
			return nil, err
		}
		tcfg := cfg.Totem
		tcfg.ID = id
		tcfg.Endpoint = ep
		tcfg.Members = members
		tcfg.Metrics = cfg.Metrics
		tn, err := totem.NewNode(tcfg)
		if err != nil {
			d.Close()
			return nil, err
		}
		rm, err := replication.New(replication.Config{Node: tn, Metrics: cfg.Metrics, Tracer: cfg.Tracer})
		if err != nil {
			tn.Stop()
			d.Close()
			return nil, err
		}
		d.nodes = append(d.nodes, &Node{ID: id, Totem: tn, RM: rm})
	}
	hosts := make([]ftmgmt.Host, 0, len(d.nodes))
	for _, n := range d.nodes {
		hosts = append(hosts, ftmgmt.Host{ID: n.ID, RM: n.RM})
	}
	d.manager = ftmgmt.NewManager(hosts...)
	d.manager.Instrument(cfg.Metrics, cfg.Log)
	// The gateway group exists from the start so gateways can join it.
	// CreateGroup is a delivered no-op on an existing id, so when several
	// processes each announce it the first delivery wins.
	if err := d.nodes[0].RM.CreateGroup(DefaultGatewayGroup, replication.Active, nil); err != nil {
		d.Close()
		return nil, err
	}
	for _, n := range d.nodes {
		if err := n.RM.WaitForGroup(DefaultGatewayGroup, d.syncTimeout); err != nil {
			d.Close()
			return nil, fmt.Errorf("domain %s: gateway group: %w", cfg.Name, err)
		}
	}
	return d, nil
}

// Nodes returns the number of processors this Domain hosts.
func (d *Domain) Nodes() int { return len(d.nodes) }

// Node returns local processor i.
func (d *Domain) Node(i int) *Node { return d.nodes[i] }

// Manager returns the domain's management objects.
func (d *Domain) Manager() *ftmgmt.Manager { return d.manager }

// Gateways returns the domain's gateways in creation order.
func (d *Domain) Gateways() []*core.Gateway {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*core.Gateway(nil), d.gateways...)
}

// AddGateway starts a gateway on processor i listening on addr (empty
// for an ephemeral localhost port) and waits until it is a live member
// of the gateway group. The domain's Admission template, if any,
// parameterizes the gateway's admission controller.
func (d *Domain) AddGateway(i int, addr string) (*core.Gateway, error) {
	return d.AddGatewayAdmission(i, addr, d.cfg.Admission)
}

// AddGatewayAdmission is AddGateway with an explicit admission config
// for this gateway (overriding the domain template; nil means no limits
// and no breaker). When the config has no Backpressure signal, the hosting
// node's replication mechanisms supply it, so the breaker trips on that
// node's totem send backlog and pending-call occupancy.
func (d *Domain) AddGatewayAdmission(i int, addr string, ac *admission.Config) (*core.Gateway, error) {
	n := d.nodes[i]
	var adm *admission.Controller
	if ac != nil {
		cfg := *ac
		if cfg.Backpressure == nil {
			cfg.Backpressure = n.RM.Backpressure
		}
		adm = admission.New(cfg)
	}
	gw, err := core.New(core.Config{
		RM:            n.RM,
		Group:         DefaultGatewayGroup,
		ListenAddr:    addr,
		InvokeTimeout: d.cfg.GatewayInvokeTimeout,
		Admission:     adm,
		Metrics:       d.cfg.Metrics,
		Tracer:        d.cfg.Tracer,
		Log:           d.cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	if err := n.RM.WaitSynced(DefaultGatewayGroup, d.syncTimeout); err != nil {
		_ = gw.Close()
		return nil, err
	}
	d.mu.Lock()
	d.gateways = append(d.gateways, gw)
	d.gwNode[gw] = i
	d.mu.Unlock()
	d.republishAll()
	return gw, nil
}

// RemoveGateway retires a gateway from the domain's edge under live
// traffic. The published references are re-stitched without it first, so
// enhanced clients learn the surviving profile set before the gateway
// goes away; the gateway then drains its in-flight invocations under
// drainTimeout (zero means 5s) and hands its remaining clients over with
// a GIOP CloseConnection, after which their reissued invocations are
// answered by the redundant gateways from the group's record. If the
// gateway was the last one on its processor, the processor's client
// membership in the gateway group is released.
func (d *Domain) RemoveGateway(gw *core.Gateway, drainTimeout time.Duration) error {
	d.mu.Lock()
	idx, ok := d.gwNode[gw]
	if !ok {
		d.mu.Unlock()
		return errors.New("domain: gateway is not part of this domain")
	}
	delete(d.gwNode, gw)
	kept := make([]*core.Gateway, 0, len(d.gateways)-1)
	for _, g := range d.gateways {
		if g != gw {
			kept = append(kept, g)
		}
	}
	d.gateways = kept
	lastOnNode := true
	for _, i := range d.gwNode {
		if i == idx {
			lastOnNode = false
			break
		}
	}
	d.mu.Unlock()

	d.republishAll()
	if drainTimeout <= 0 {
		drainTimeout = 5 * time.Second
	}
	err := gw.Drain(drainTimeout)
	if lastOnNode {
		if lerr := d.nodes[idx].RM.LeaveGroup(DefaultGatewayGroup); lerr != nil && err == nil {
			err = lerr
		}
	}
	return err
}

// PublishIOR builds the reference external clients use to reach the
// object: the interceptor's address rewriting pointed it at the
// gateways, one profile per gateway in failover order (paper sections
// 3.1 and 3.5).
func (d *Domain) PublishIOR(typeID string, objectKey []byte) (ior.Ref, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ref, err := d.stitchLocked(typeID, objectKey)
	if err != nil {
		return ior.Ref{}, err
	}
	// Remember what was handed out so the reference can be re-stitched
	// when the gateway set changes.
	d.published[string(objectKey)] = typeID
	return ref, nil
}

// stitchLocked builds a reference from the current gateway set. Callers
// hold mu.
func (d *Domain) stitchLocked(typeID string, objectKey []byte) (ior.Ref, error) {
	if len(d.gateways) == 0 {
		return ior.Ref{}, errors.New("domain: no gateways to publish")
	}
	addrs := make([]interceptor.GatewayAddr, 0, len(d.gateways))
	for _, gw := range d.gateways {
		host, port := gw.HostPort()
		addrs = append(addrs, interceptor.GatewayAddr{Host: host, Port: port})
	}
	ref := interceptor.StitchIOR(typeID, objectKey, addrs...)
	// Tag the reference with the minting implementation and the domain
	// name (ignored by readers that do not understand the components).
	return ref.WithComponents(
		ior.ORBTypeComponent(ior.ORBTypeEternalGW),
		ior.FTDomainComponent(d.Name),
	), nil
}

// republishAll re-stitches every published reference against the current
// gateway set and hands each to the OnIORUpdate hook.
func (d *Domain) republishAll() {
	if d.cfg.OnIORUpdate == nil {
		return
	}
	type update struct {
		key string
		ref ior.Ref
	}
	d.mu.Lock()
	updates := make([]update, 0, len(d.published))
	for key, typeID := range d.published {
		ref, err := d.stitchLocked(typeID, []byte(key))
		if err != nil {
			continue // no gateways left; publish again once one is added
		}
		updates = append(updates, update{key: key, ref: ref})
	}
	d.mu.Unlock()
	// The hook runs outside mu so it may call back into the domain.
	for _, u := range updates {
		d.cfg.OnIORUpdate([]byte(u.key), u.ref)
	}
}

// CrashNode simulates a processor failure: its network endpoint goes
// silent and any gateways it hosts drop their connections.
func (d *Domain) CrashNode(i int) {
	d.Net.Crash(d.nodes[i].ID)
	d.mu.Lock()
	var closing []*core.Gateway
	for gw, idx := range d.gwNode {
		if idx == i {
			closing = append(closing, gw)
		}
	}
	d.mu.Unlock()
	for _, gw := range closing {
		_ = gw.Close()
	}
}

// RestartNode heals a crashed processor's network endpoint; its totem
// node rejoins the ring automatically.
func (d *Domain) RestartNode(i int) {
	d.Net.Restart(d.nodes[i].ID)
}

// Close stops everything.
func (d *Domain) Close() {
	if d.closed {
		return
	}
	d.closed = true
	if d.manager != nil {
		d.manager.Close()
	}
	for _, gw := range d.Gateways() {
		_ = gw.Close()
	}
	for _, n := range d.nodes {
		n.RM.Stop()
	}
	for _, n := range d.nodes {
		n.Totem.Stop()
	}
}
