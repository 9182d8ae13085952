// Command ftdomaind runs a complete fault tolerance domain in one
// process: a Totem ring over the simulated network, the replication
// mechanisms on every processor, a replicated demo object (a register
// supporting set/append/read/ops), and one or more gateways listening on
// real TCP ports.
//
// It prints the multi-profile IOR that external clients (cmd/ftclient,
// or any program speaking GIOP 1.0) use to reach the replicated object
// through the gateways, then serves until interrupted.
//
// Usage:
//
//	ftdomaind -nodes 4 -replicas 3 -gateways 2 -style active
//	ftdomaind -listen 127.0.0.1:9021,127.0.0.1:9022
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"eternalgw/internal/admission"
	"eternalgw/internal/core"
	"eternalgw/internal/domain"
	"eternalgw/internal/experiments"
	"eternalgw/internal/ftmgmt"
	"eternalgw/internal/interceptor"
	"eternalgw/internal/ior"
	"eternalgw/internal/memnet"
	"eternalgw/internal/naming"
	"eternalgw/internal/obs"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
	"eternalgw/internal/udpnet"
)

// udpFactory builds a localhost UDP registry for the domain's processors
// and returns a transport factory over it, applying the UDP tuning knobs
// to every endpoint.
func udpFactory(nodes int, ucfg udpnet.Config) (func(memnet.NodeID) (totem.Transport, error), udpnet.Registry, error) {
	ids := make([]memnet.NodeID, nodes)
	for i := range ids {
		ids[i] = memnet.NodeID(fmt.Sprintf("demo/p%02d", i))
	}
	registry, err := udpnet.LoopbackRegistry(ids...)
	if err != nil {
		return nil, nil, err
	}
	factory := func(id memnet.NodeID) (totem.Transport, error) {
		return udpnet.ListenConfig(id, registry, ucfg)
	}
	return factory, registry, nil
}

// parseRegistry decodes a -registry specification: comma-separated
// "id=host:port" pairs, or "@path" naming a file with one pair per line
// ('#' starts a comment). It returns the registry plus the node ids in
// sorted order — the convention order that decides replica placement in
// node mode.
func parseRegistry(spec string) (udpnet.Registry, []memnet.NodeID, error) {
	if spec == "" {
		return nil, nil, fmt.Errorf("-node requires -registry")
	}
	var pairs []string
	if strings.HasPrefix(spec, "@") {
		data, err := os.ReadFile(spec[1:])
		if err != nil {
			return nil, nil, fmt.Errorf("registry file: %w", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			if line = strings.TrimSpace(line); line != "" {
				pairs = append(pairs, line)
			}
		}
	} else {
		pairs = strings.Split(spec, ",")
	}
	reg := make(udpnet.Registry, len(pairs))
	for _, p := range pairs {
		p = strings.TrimSpace(p)
		id, addr, ok := strings.Cut(p, "=")
		if !ok || id == "" || addr == "" {
			return nil, nil, fmt.Errorf("bad registry entry %q (want id=host:port)", p)
		}
		if _, dup := reg[memnet.NodeID(id)]; dup {
			return nil, nil, fmt.Errorf("duplicate registry entry for %q", id)
		}
		reg[memnet.NodeID(id)] = addr
	}
	ids := make([]memnet.NodeID, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return reg, ids, nil
}

const (
	demoGroup replication.GroupID = 100
	demoKey                       = "demo/register"
	demoType                      = "IDL:eternalgw/Register:1.0"
	demoName                      = "demo/register"
)

// bindDemo registers the demo object's reference in the name service
// through a gateway, like any external administration client would.
func bindDemo(nsRef, demoRef ior.Ref) error {
	p, err := nsRef.PrimaryProfile()
	if err != nil {
		return err
	}
	conn, err := orb.Dial(p.Addr())
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }()
	return naming.ViaConn(conn).Rebind(demoName, demoRef)
}

func main() {
	var (
		nodes    = flag.Int("nodes", 4, "processors in the domain")
		replicas = flag.Int("replicas", 3, "replicas of the demo object")
		gateways = flag.Int("gateways", 2, "gateways on the domain edge")
		styleStr = flag.String("style", "active", "replication style: stateless|cold|warm|active|voting")
		listen   = flag.String("listen", "", "comma-separated gateway listen addresses (default: ephemeral localhost ports)")
		monitor  = flag.Duration("monitor", 250*time.Millisecond, "resource manager reconciliation interval (0 disables)")
		udp      = flag.Bool("udp", false, "run the domain's totem ring over real UDP sockets on localhost instead of the in-process network")
		node     = flag.String("node", "", "run as a single ring member with this identity (multi-process mode; requires -registry)")
		registry = flag.String("registry", "", "ring membership as comma-separated id=host:port pairs, or @file with one pair per line (node mode)")
		udpRcv   = flag.Int("udp-rcvbuf", 0, "UDP socket receive buffer in bytes (0 = OS default)")
		udpSnd   = flag.Int("udp-sndbuf", 0, "UDP socket send buffer in bytes (0 = OS default)")
		ordering = flag.String("ordering", "ring", "totem ordering mode: ring (token rotation) or leader (sequencer fast path, see docs/PERFORMANCE.md)")
		quorum   = flag.Bool("quorum", false, "enable majority-partition protection (a minority partition refuses to serve)")
		obsAddr  = flag.String("obs-addr", "", "ops HTTP listen address for /metrics, /healthz, /readyz, /statusz (empty disables)")
		trace    = flag.Bool("trace", false, "record per-invocation traces, shown on /statusz (requires -obs-addr)")
		pprofOn  = flag.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/ on the ops server (requires -obs-addr)")
		logLevel = flag.String("log-level", "warn", "log verbosity: debug|info|warn|error")

		maxConns     = flag.Int("max-conns", 0, "admission: max concurrent client connections per gateway (0 = unlimited)")
		maxConnsPer  = flag.Int("max-conns-per-client", 0, "admission: max concurrent connections per client address (0 = unlimited)")
		rate         = flag.Float64("rate", 0, "admission: per-client sustained request rate in req/s (0 = unlimited)")
		inflight     = flag.Int("inflight", 0, "admission: max requests concurrently in flight per gateway (0 = unlimited)")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "how long a gateway may bleed in-flight requests on shutdown")
	)
	flag.Parse()
	udpCfg := udpnet.Config{
		ReadBuffer:  *udpRcv,
		WriteBuffer: *udpSnd,
	}
	if *node != "" {
		if err := runNode(nodeOpts{
			node: *node, registry: *registry, replicas: *replicas,
			styleStr: *styleStr, ordering: *ordering, listen: *listen,
			quorum: *quorum, obsAddr: *obsAddr, logLevel: *logLevel,
			drainTimeout: *drainTimeout, udp: udpCfg,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "ftdomaind:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(runOpts{
		nodes: *nodes, replicas: *replicas, gateways: *gateways,
		styleStr: *styleStr, listen: *listen, monitor: *monitor,
		udp: *udp, udpCfg: udpCfg, quorum: *quorum, ordering: *ordering,
		obsAddr: *obsAddr, trace: *trace, pprof: *pprofOn, logLevel: *logLevel,
		maxConns: *maxConns, maxConnsPerClient: *maxConnsPer,
		rate: *rate, inflight: *inflight, drainTimeout: *drainTimeout,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "ftdomaind:", err)
		os.Exit(1)
	}
}

// runOpts carries the parsed command line into run.
type runOpts struct {
	nodes, replicas, gateways int
	styleStr, listen          string
	ordering                  string
	monitor                   time.Duration
	udp, quorum               bool
	udpCfg                    udpnet.Config
	obsAddr                   string
	trace                     bool
	pprof                     bool
	logLevel                  string

	maxConns, maxConnsPerClient int
	rate                        float64
	inflight                    int
	drainTimeout                time.Duration

	// stop, when non-nil, ends the serve loop like a signal would (tests
	// use it to drive a graceful shutdown without raising signals).
	stop <-chan struct{}
	// onReady, when non-nil, is called with the gateway addresses once
	// the domain is serving.
	onReady func(addrs []string)
	// onObs, when non-nil, is called with the ops server's address once
	// it is serving (tests use it to reach the admin endpoints).
	onObs func(addr string)
}

// admissionConfig translates the admission flags into a config template,
// or nil when every knob is at its unlimited default.
func (o *runOpts) admissionConfig() *admission.Config {
	if o.maxConns == 0 && o.maxConnsPerClient == 0 && o.rate == 0 && o.inflight == 0 {
		return nil
	}
	return &admission.Config{
		MaxConns:          o.maxConns,
		MaxConnsPerClient: o.maxConnsPerClient,
		Rate:              o.rate,
		MaxInFlight:       o.inflight,
		AdmitWait:         100 * time.Millisecond,
	}
}

func parseStyle(s string) (replication.Style, error) {
	switch strings.ToLower(s) {
	case "stateless":
		return replication.Stateless, nil
	case "cold":
		return replication.ColdPassive, nil
	case "warm":
		return replication.WarmPassive, nil
	case "active":
		return replication.Active, nil
	case "voting":
		return replication.ActiveWithVoting, nil
	default:
		return 0, fmt.Errorf("unknown replication style %q", s)
	}
}

func parseOrdering(s string) (totem.OrderingMode, error) {
	switch strings.ToLower(s) {
	case "", "ring":
		return totem.OrderingRing, nil
	case "leader":
		return totem.OrderingLeader, nil
	default:
		return 0, fmt.Errorf("unknown ordering mode %q (want ring or leader)", s)
	}
}

func run(o runOpts) error {
	nodes, replicas, gateways := o.nodes, o.replicas, o.gateways
	listen, monitor := o.listen, o.monitor
	style, err := parseStyle(o.styleStr)
	if err != nil {
		return err
	}
	orderingMode, err := parseOrdering(o.ordering)
	if err != nil {
		return err
	}
	if replicas > nodes {
		return fmt.Errorf("cannot place %d replicas on %d nodes", replicas, nodes)
	}
	cfg := domain.Config{
		Name:      "demo",
		Nodes:     nodes,
		Log:       obs.NewLogger(os.Stderr, obs.ParseLevel(o.logLevel)),
		Admission: o.admissionConfig(),
		// Whenever the gateway set changes (admin surface add/remove),
		// print the re-stitched references so operators can hand the new
		// profile list to clients that do not watch the name service.
		OnIORUpdate: func(objectKey []byte, ref ior.Ref) {
			fmt.Printf("republished IOR for %q:\n%s\n", objectKey, ref.String())
		},
	}
	cfg.Totem.Ordering = orderingMode
	if orderingMode == totem.OrderingLeader {
		fmt.Println("totem ordering: leader fast path (sequencer-assigned order, ring fallback on failure)")
	}
	if cfg.Admission != nil {
		fmt.Printf("admission control: max-conns=%d max-conns-per-client=%d rate=%g inflight=%d\n",
			o.maxConns, o.maxConnsPerClient, o.rate, o.inflight)
	}
	var ops *obs.Server
	if o.obsAddr != "" {
		cfg.Metrics = obs.NewRegistry()
		if o.trace {
			cfg.Tracer = obs.NewTracer(256)
			cfg.Tracer.Register(cfg.Metrics)
		}
		ops, err = obs.NewServerOpts(o.obsAddr, cfg.Metrics, cfg.Tracer, obs.ServerOptions{Pprof: o.pprof})
		if err != nil {
			return fmt.Errorf("ops server: %w", err)
		}
		defer func() { _ = ops.Close() }()
		endpoints := "/metrics /healthz /readyz /statusz"
		if o.pprof {
			endpoints += " /debug/pprof/"
		}
		fmt.Printf("ops endpoints on http://%s/ (%s)\n", ops.Addr(), endpoints)
	} else if o.pprof {
		return fmt.Errorf("-pprof requires -obs-addr")
	}
	if o.quorum {
		cfg.Replication = replication.Config{QuorumOf: nodes}
	}
	if o.udp {
		ucfg := o.udpCfg
		ucfg.Metrics = cfg.Metrics
		factory, registry, err := udpFactory(nodes, ucfg)
		if err != nil {
			return err
		}
		cfg.TransportFactory = factory
		fmt.Printf("totem ring over UDP: %d sockets on localhost\n", len(registry))
	}
	d, err := domain.New(cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	if ops != nil {
		ops.AddStatusSection("dedup-cache", func() string {
			var b strings.Builder
			for i := 0; i < d.Nodes(); i++ {
				n := d.Node(i)
				for group, entries := range n.RM.DedupOccupancy() {
					fmt.Fprintf(&b, "node %s group %d: %d entries\n", n.ID, group, entries)
				}
			}
			if b.Len() == 0 {
				return "no local servant replicas\n"
			}
			return b.String()
		})
	}

	demoFactory := func() (replication.Application, error) {
		return &experiments.RegisterApp{}, nil
	}
	err = d.Manager().CreateReplicatedObject(demoGroup, ftmgmt.Properties{
		Style:           style,
		InitialReplicas: replicas,
		MinReplicas:     replicas,
		ObjectKey:       []byte(demoKey),
		TypeID:          demoType,
	}, demoFactory)
	if err != nil {
		return err
	}
	if monitor > 0 {
		d.Manager().Monitor(monitor)
	}

	// A replicated name service, bound under the conventional key, with
	// the demo object registered in it.
	err = d.Manager().CreateReplicatedObject(demoGroup+1, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: min(2, nodes),
		MinReplicas:     1,
		ObjectKey:       []byte(naming.ObjectKey),
		TypeID:          naming.TypeID,
	}, func() (replication.Application, error) { return naming.NewService(), nil })
	if err != nil {
		return err
	}

	var addrs []string
	if listen != "" {
		addrs = strings.Split(listen, ",")
		gateways = len(addrs)
	}
	var gwAddrs []string
	for i := 0; i < gateways; i++ {
		addr := ""
		if addrs != nil {
			addr = strings.TrimSpace(addrs[i])
		}
		gw, err := d.AddGateway(i%nodes, addr)
		if err != nil {
			return fmt.Errorf("gateway %d: %w", i, err)
		}
		gwAddrs = append(gwAddrs, gw.Addr())
		fmt.Printf("gateway %d listening on %s\n", i, gw.Addr())
	}
	if ops != nil && cfg.Admission != nil {
		ops.AddStatusSection("admission", func() string {
			var b strings.Builder
			for i, gw := range d.Gateways() {
				adm := gw.Admission()
				if adm == nil {
					continue
				}
				s := adm.Stats()
				fmt.Fprintf(&b, "gateway %d (%s): inflight=%d draining=%v breaker=%v clients=%d admitted=%d shed rate=%d window=%d draining=%d conns over-cap=%d breaker=%d trips=%d\n",
					i, gw.Addr(), gw.InFlight(), gw.Draining(), adm.BreakerOpen(), adm.TrackedClients(),
					s.Admitted, s.ShedRate, s.ShedWindow, s.ShedDraining, s.ConnsOverCap, s.ConnsShedBreaker, s.BreakerTrips)
			}
			if b.Len() == 0 {
				return "no admission-controlled gateways\n"
			}
			return b.String()
		})
	}
	ref, err := d.PublishIOR(demoType, []byte(demoKey))
	if err != nil {
		return err
	}
	nsRef, err := d.PublishIOR(naming.TypeID, []byte(naming.ObjectKey))
	if err != nil {
		return err
	}
	if err := bindDemo(nsRef, ref); err != nil {
		return fmt.Errorf("binding demo object in the name service: %w", err)
	}
	fmt.Printf("domain: %d processors, %d %s replicas of %q, %d gateway(s)\n",
		nodes, replicas, style, demoKey, gateways)
	fmt.Printf("object reference:\n%s\n", ref.String())
	fmt.Printf("name service reference (demo object bound as %q):\n%s\n", demoName, nsRef.String())
	drainTimeout := o.drainTimeout
	if drainTimeout <= 0 {
		drainTimeout = 5 * time.Second
	}
	if ops != nil {
		registerAdmin(ops, d, demoFactory, drainTimeout)
		fmt.Printf("reconfiguration admin on http://%s/reconfig/ (views grow shrink replace upgrade gateway/add gateway/remove)\n", ops.Addr())
		ops.SetReady(true)
	}
	fmt.Println("serving; interrupt to stop")
	if o.onReady != nil {
		o.onReady(gwAddrs)
	}
	if o.onObs != nil && ops != nil {
		o.onObs(ops.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case <-o.stop:
	}
	// Graceful shutdown: every gateway drains concurrently — stops
	// accepting, bleeds its in-flight invocations under the deadline, and
	// hands remaining clients to whatever redundant gateways survive it
	// (or, on full shutdown, to the clients' retry logic).
	if ops != nil {
		ops.SetReady(false)
	}
	fmt.Println("draining gateways")
	var wg sync.WaitGroup
	for _, gw := range d.Gateways() {
		wg.Add(1)
		go func(gw *core.Gateway) {
			defer wg.Done()
			_ = gw.Drain(drainTimeout)
		}(gw)
	}
	wg.Wait()
	fmt.Println("shutting down")
	return nil
}

// nodeOpts carries the parsed command line into runNode.
type nodeOpts struct {
	node, registry string
	replicas       int
	styleStr       string
	ordering       string
	listen         string
	quorum         bool
	obsAddr        string
	logLevel       string
	drainTimeout   time.Duration
	udp            udpnet.Config

	// stop, onReady, onObs mirror the runOpts test hooks.
	stop    <-chan struct{}
	onReady func(addrs []string)
	onObs   func(addr string)
}

// runNode runs one ring member in this OS process: a UDP endpoint bound
// at the node's registry address, a totem node over the full registry
// membership, and the replication mechanisms. Deployment is by
// convention over the sorted registry ids — the first -replicas ids each
// host a replica of the demo object, and any node given -listen also
// hosts gateways — so the processes need no coordinator beyond the
// shared registry (docs/OPERATIONS.md "Real-network deployment").
func runNode(o nodeOpts) error {
	style, err := parseStyle(o.styleStr)
	if err != nil {
		return err
	}
	orderingMode, err := parseOrdering(o.ordering)
	if err != nil {
		return err
	}
	registry, ids, err := parseRegistry(o.registry)
	if err != nil {
		return err
	}
	id := memnet.NodeID(o.node)
	idx := -1
	for i, n := range ids {
		if n == id {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("node %q is not in the registry %v", id, ids)
	}
	if o.replicas <= 0 || o.replicas > len(ids) {
		return fmt.Errorf("cannot place %d replicas on %d registry nodes", o.replicas, len(ids))
	}
	log := obs.NewLogger(os.Stderr, obs.ParseLevel(o.logLevel))
	var metrics *obs.Registry
	var ops *obs.Server
	if o.obsAddr != "" {
		metrics = obs.NewRegistry()
		ops, err = obs.NewServerOpts(o.obsAddr, metrics, nil, obs.ServerOptions{})
		if err != nil {
			return fmt.Errorf("ops server: %w", err)
		}
		defer func() { _ = ops.Close() }()
		fmt.Printf("ops endpoints on http://%s/ (/metrics /healthz /readyz /statusz)\n", ops.Addr())
	}

	ucfg := o.udp
	ucfg.Metrics = metrics
	ep, err := udpnet.ListenConfig(id, registry, ucfg)
	if err != nil {
		return err
	}
	defer func() { _ = ep.Close() }()
	fmt.Printf("node %s: UDP endpoint %s (batched=%v), ring of %d\n", id, ep.Addr(), ep.Batched(), len(ids))
	tn, err := totem.Start(totem.Config{
		ID:       id,
		Endpoint: ep,
		Members:  ids,
		Ordering: orderingMode,
		Metrics:  metrics,
	})
	if err != nil {
		return err
	}
	defer tn.Stop()
	rcfg := replication.Config{Node: tn, NodeID: id, Metrics: metrics}
	if o.quorum {
		rcfg.QuorumOf = len(ids)
	}
	rm, err := replication.New(rcfg)
	if err != nil {
		return err
	}
	defer rm.Stop()

	// Group setup. CreateGroup is a delivered no-op on an existing id, so
	// every process announces both groups and the first delivery wins —
	// no coordinator needed. The waits below then synchronize the fleet.
	const syncTimeout = 60 * time.Second
	if err := rm.CreateGroup(domain.DefaultGatewayGroup, replication.Active, nil); err != nil {
		return err
	}
	if err := rm.CreateGroup(demoGroup, style, []byte(demoKey)); err != nil {
		return err
	}
	if err := rm.WaitForGroup(domain.DefaultGatewayGroup, syncTimeout); err != nil {
		return fmt.Errorf("gateway group: %w", err)
	}
	if idx < o.replicas {
		if err := rm.JoinGroup(demoGroup, &experiments.RegisterApp{}); err != nil {
			return err
		}
	}
	if err := rm.WaitForMembers(demoGroup, o.replicas, syncTimeout); err != nil {
		return fmt.Errorf("demo group never reached %d replicas: %w", o.replicas, err)
	}
	if idx < o.replicas {
		if err := rm.WaitSynced(demoGroup, syncTimeout); err != nil {
			return fmt.Errorf("demo replica sync: %w", err)
		}
		fmt.Printf("node %s: hosting %s replica of %q (%d of %d)\n", id, style, demoKey, idx+1, o.replicas)
	}

	drainTimeout := o.drainTimeout
	if drainTimeout <= 0 {
		drainTimeout = 5 * time.Second
	}
	var gws []*core.Gateway
	var gwAddrs []string
	if o.listen != "" {
		for i, addr := range strings.Split(o.listen, ",") {
			gw, err := core.New(core.Config{
				RM:         rm,
				Group:      domain.DefaultGatewayGroup,
				ListenAddr: strings.TrimSpace(addr),
				Metrics:    metrics,
				Log:        log,
			})
			if err != nil {
				return fmt.Errorf("gateway %d: %w", i, err)
			}
			defer func() { _ = gw.Close() }()
			if err := rm.WaitSynced(domain.DefaultGatewayGroup, syncTimeout); err != nil {
				return fmt.Errorf("gateway group sync: %w", err)
			}
			gws = append(gws, gw)
			gwAddrs = append(gwAddrs, gw.Addr())
			fmt.Printf("gateway %d listening on %s\n", i, gw.Addr())
		}
		addrs := make([]interceptor.GatewayAddr, 0, len(gws))
		for _, gw := range gws {
			host, port := gw.HostPort()
			addrs = append(addrs, interceptor.GatewayAddr{Host: host, Port: port})
		}
		ref := interceptor.StitchIOR(demoType, []byte(demoKey), addrs...)
		fmt.Printf("object reference:\n%s\n", ref.String())
	}
	if ops != nil {
		ops.SetReady(true)
	}
	fmt.Println("serving; interrupt to stop")
	if o.onReady != nil {
		o.onReady(gwAddrs)
	}
	if o.onObs != nil && ops != nil {
		o.onObs(ops.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case <-o.stop:
	}
	if ops != nil {
		ops.SetReady(false)
	}
	if len(gws) > 0 {
		fmt.Println("draining gateways")
		var wg sync.WaitGroup
		for _, gw := range gws {
			wg.Add(1)
			go func(gw *core.Gateway) {
				defer wg.Done()
				_ = gw.Drain(drainTimeout)
			}(gw)
		}
		wg.Wait()
	}
	fmt.Println("shutting down")
	return nil
}

// registerAdmin mounts the online-reconfiguration admin surface on the
// ops server. All mutating endpoints are POST; responses are plain text.
// The upgrade endpoint performs a rolling restart of the group onto
// fresh instances from the demo factory (each replacement catches up by
// checkpoint + log replay), which is the daemon-level stand-in for
// deploying a new application build.
func registerAdmin(ops *obs.Server, d *domain.Domain, factory ftmgmt.Factory, drainTimeout time.Duration) {
	mgr := d.Manager()

	groupOf := func(r *http.Request) (replication.GroupID, error) {
		raw := r.FormValue("group")
		if raw == "" {
			return demoGroup, nil
		}
		id, err := strconv.ParseUint(raw, 10, 32)
		if err != nil {
			return 0, fmt.Errorf("bad group %q: %w", raw, err)
		}
		return replication.GroupID(id), nil
	}
	post := func(fn func(w http.ResponseWriter, r *http.Request)) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fn(w, r)
		})
	}
	writeView := func(w http.ResponseWriter, id replication.GroupID, v replication.View) {
		fmt.Fprintf(w, "group %d: view %d at seq %d, %d members %v\n",
			id, v.Number, v.Seq, len(v.Members), v.Members)
	}

	ops.Handle("/reconfig/views", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rm := d.Node(0).RM
		for _, id := range rm.Groups() {
			if v, ok := rm.View(id); ok {
				writeView(w, id, v)
			}
		}
	}))
	ops.Handle("/reconfig/grow", post(func(w http.ResponseWriter, r *http.Request) {
		id, err := groupOf(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		v, err := mgr.Grow(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeView(w, id, v)
	}))
	ops.Handle("/reconfig/shrink", post(func(w http.ResponseWriter, r *http.Request) {
		id, err := groupOf(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		v, err := mgr.Shrink(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeView(w, id, v)
	}))
	ops.Handle("/reconfig/replace", post(func(w http.ResponseWriter, r *http.Request) {
		id, err := groupOf(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		node := r.FormValue("node")
		if node == "" {
			http.Error(w, "node parameter required", http.StatusBadRequest)
			return
		}
		v, err := mgr.Replace(id, memnet.NodeID(node))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeView(w, id, v)
	}))
	ops.Handle("/reconfig/upgrade", post(func(w http.ResponseWriter, r *http.Request) {
		id, err := groupOf(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		v, err := mgr.RollingUpgrade(id, factory)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeView(w, id, v)
	}))
	ops.Handle("/reconfig/gateway/add", post(func(w http.ResponseWriter, r *http.Request) {
		node := 0
		if raw := r.FormValue("node"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 || n >= d.Nodes() {
				http.Error(w, fmt.Sprintf("bad node %q (have %d)", raw, d.Nodes()), http.StatusBadRequest)
				return
			}
			node = n
		}
		gw, err := d.AddGateway(node, r.FormValue("addr"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "gateway listening on %s (node %d); references republished\n", gw.Addr(), node)
	}))
	ops.Handle("/reconfig/gateway/remove", post(func(w http.ResponseWriter, r *http.Request) {
		addr := r.FormValue("addr")
		var target *core.Gateway
		for _, gw := range d.Gateways() {
			if gw.Addr() == addr {
				target = gw
				break
			}
		}
		if target == nil {
			http.Error(w, fmt.Sprintf("no gateway listening on %q", addr), http.StatusNotFound)
			return
		}
		if len(d.Gateways()) == 1 {
			http.Error(w, "refusing to remove the last gateway", http.StatusConflict)
			return
		}
		if err := d.RemoveGateway(target, drainTimeout); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "gateway %s drained and removed; references republished\n", addr)
	}))
}
