// Command ftdomaind runs a fault tolerance domain: a Totem ring, the
// replication mechanisms on every processor, a replicated demo object (a
// register supporting set/append/read/ops), and gateways listening on
// real TCP ports. By default the whole domain runs in this process;
// with -node the process is one member of a ring of OS processes sharing
// a -registry. internal/domain assembles the processors either way.
//
// It prints the multi-profile IOR that external clients (cmd/ftclient,
// or any program speaking GIOP 1.0) use to reach the replicated object
// through the gateways, then serves until interrupted.
//
// Usage:
//
//	ftdomaind -nodes 4 -replicas 3 -gateways 2 -style active
//	ftdomaind -listen 127.0.0.1:9021,127.0.0.1:9022
//	ftdomaind -node a -registry a=127.0.0.1:7001,b=127.0.0.1:7002 -replicas 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"slices"
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
	"eternalgw/internal/ior"
	"eternalgw/internal/memnet"
	"eternalgw/internal/naming"
	"eternalgw/internal/obs"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
	"eternalgw/internal/udpnet"
)

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
	ids := make([]memnet.NodeID, 0, len(pairs))
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
		ids = append(ids, memnet.NodeID(id))
	}
	slices.Sort(ids)
	return reg, ids, nil
}

const (
	demoGroup replication.GroupID = 100
	demoKey                       = "demo/register"
	demoType                      = "IDL:eternalgw/Register:1.0"
	demoName                      = "demo/register"
)

func demoFactory() (replication.Application, error) {
	return &experiments.RegisterApp{}, nil
}

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
	o, err := parseFlags(os.Args[1:])
	if err == nil {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftdomaind:", err)
		os.Exit(1)
	}
}

// runOpts carries the parsed command line into run.
type runOpts struct {
	nodes, replicas, gateways  int
	styleStr, listen, ordering string
	monitor                    time.Duration
	udp, quorum                bool
	node, registry             string
	udpCfg                     udpnet.Config
	obsAddr, logLevel          string
	trace, pprof               bool

	adm          admission.Config // the admission flags' four limits
	drainTimeout time.Duration

	// stop, when non-nil, ends the serve loop like a signal would (tests
	// use it to drive a graceful shutdown without raising signals).
	stop <-chan struct{}
	// onReady, when non-nil, is called once the domain is serving (tests
	// read the gateway and ops addresses off its arguments).
	onReady func(d *domain.Domain, ops *obs.Server)
}

// parseFlags reads the command line. A flag that cannot apply — to the
// chosen mode, or without the ops server it rides on — is an error when
// set explicitly, never a silent no-op.
func parseFlags(args []string) (runOpts, error) {
	var o runOpts
	fs := flag.NewFlagSet("ftdomaind", flag.ExitOnError)
	fs.IntVar(&o.nodes, "nodes", 4, "processors in the domain")
	fs.IntVar(&o.replicas, "replicas", 3, "replicas of the demo object")
	fs.IntVar(&o.gateways, "gateways", 2, "gateways on the domain edge")
	fs.StringVar(&o.styleStr, "style", "active", "replication style: stateless|cold|warm|active|voting")
	fs.StringVar(&o.listen, "listen", "", "comma-separated gateway listen addresses (default: ephemeral localhost ports; node mode: no gateways)")
	fs.DurationVar(&o.monitor, "monitor", 250*time.Millisecond, "resource manager reconciliation interval (0 disables)")
	fs.BoolVar(&o.udp, "udp", false, "run the domain's totem ring over real UDP sockets on localhost instead of the in-process network")
	fs.StringVar(&o.node, "node", "", "run as a single ring member with this identity (multi-process mode; requires -registry)")
	fs.StringVar(&o.registry, "registry", "", "ring membership as comma-separated id=host:port pairs, or @file with one pair per line (node mode)")
	fs.IntVar(&o.udpCfg.ReadBuffer, "udp-rcvbuf", 0, "UDP socket receive buffer in bytes (0 = OS default)")
	fs.IntVar(&o.udpCfg.WriteBuffer, "udp-sndbuf", 0, "UDP socket send buffer in bytes (0 = OS default)")
	fs.StringVar(&o.ordering, "ordering", "ring", "totem ordering mode: ring (token rotation) or leader (sequencer fast path, see docs/PERFORMANCE.md)")
	fs.BoolVar(&o.quorum, "quorum", false, "enable majority-partition protection (a minority partition refuses to serve)")
	fs.StringVar(&o.obsAddr, "obs-addr", "", "ops HTTP listen address for /metrics, /healthz, /readyz, /statusz (empty disables)")
	fs.BoolVar(&o.trace, "trace", false, "record per-invocation traces, shown on /statusz (requires -obs-addr)")
	fs.BoolVar(&o.pprof, "pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/ on the ops server (requires -obs-addr)")
	fs.StringVar(&o.logLevel, "log-level", "warn", "log verbosity: debug|info|warn|error")
	fs.IntVar(&o.adm.MaxConns, "max-conns", 0, "admission: max concurrent client connections per gateway (0 = unlimited)")
	fs.IntVar(&o.adm.MaxConnsPerClient, "max-conns-per-client", 0, "admission: max concurrent connections per client address (0 = unlimited)")
	fs.Float64Var(&o.adm.Rate, "rate", 0, "admission: per-client sustained request rate in req/s (0 = unlimited)")
	fs.IntVar(&o.adm.MaxInFlight, "inflight", 0, "admission: max requests concurrently in flight per gateway (0 = unlimited)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 5*time.Second, "how long a gateway may bleed in-flight requests on shutdown")
	_ = fs.Parse(args) // ExitOnError

	inapplicable, mode := []string{"registry"}, "without -node"
	if o.node != "" {
		inapplicable, mode = []string{"nodes", "gateways", "udp", "monitor"}, "with -node"
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case slices.Contains(inapplicable, f.Name):
			err = fmt.Errorf("-%s does not apply %s", f.Name, mode)
		case (f.Name == "trace" || f.Name == "pprof") && f.Value.String() == "true" && o.obsAddr == "":
			err = fmt.Errorf("-%s requires -obs-addr", f.Name)
		}
	})
	return o, err
}

// admissionConfig translates the admission flags into a config template,
// or nil when every knob is at its unlimited default.
func (o *runOpts) admissionConfig() *admission.Config {
	a := o.adm
	if a.MaxConns == 0 && a.MaxConnsPerClient == 0 && a.Rate == 0 && a.MaxInFlight == 0 {
		return nil
	}
	a.AdmitWait = 100 * time.Millisecond
	return &a
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

// run stands the process's share of the domain up — every processor, or
// with -node the one named — deploys the demo, and serves until stopped.
func run(o runOpts) error {
	style, err := parseStyle(o.styleStr)
	if err != nil {
		return err
	}
	cfg := domain.Config{
		Name:      "demo",
		Log:       obs.NewLogger(os.Stderr, obs.ParseLevel(o.logLevel)),
		Admission: o.admissionConfig(),
		// Whenever the gateway set changes (admin surface add/remove),
		// print the re-stitched references so operators can hand the new
		// profile list to clients that do not watch the name service.
		OnIORUpdate: func(objectKey []byte, ref ior.Ref) {
			fmt.Printf("republished IOR for %q:\n%s\n", objectKey, ref.String())
		},
	}
	if cfg.Totem.Ordering, err = parseOrdering(o.ordering); err != nil {
		return err
	}
	// Membership: the registry's ids with this process hosting the one
	// named by -node, or -nodes minted ids all hosted here (over a
	// loopback registry of their own with -udp).
	var registry udpnet.Registry
	nodeIdx := -1 // with -node, this member's place among the sorted ids
	if o.node != "" {
		if registry, cfg.Members, err = parseRegistry(o.registry); err != nil {
			return err
		}
		cfg.Local = []memnet.NodeID{memnet.NodeID(o.node)}
		if nodeIdx = slices.Index(cfg.Members, cfg.Local[0]); nodeIdx < 0 {
			return fmt.Errorf("node %q is not in the registry %v", o.node, cfg.Members)
		}
	} else {
		cfg.Members = domain.MemberIDs(cfg.Name, o.nodes)
		if o.udp {
			if registry, err = udpnet.LoopbackRegistry(cfg.Members...); err != nil {
				return err
			}
		}
	}
	if o.replicas <= 0 || o.replicas > len(cfg.Members) {
		return fmt.Errorf("cannot place %d replicas on %d nodes", o.replicas, len(cfg.Members))
	}
	if o.quorum {
		cfg.Replication.QuorumOf = len(cfg.Members)
	}
	if cfg.Totem.Ordering == totem.OrderingLeader {
		fmt.Println("totem ordering: leader fast path (sequencer-assigned order, ring fallback on failure)")
	}
	if cfg.Admission != nil {
		fmt.Printf("admission control: max-conns=%d max-conns-per-client=%d rate=%g inflight=%d\n",
			o.adm.MaxConns, o.adm.MaxConnsPerClient, o.adm.Rate, o.adm.MaxInFlight)
	}
	ops, err := startOps(o, &cfg)
	if err != nil {
		return err
	}
	defer func() { _ = ops.Close() }()
	if registry != nil {
		ucfg := o.udpCfg
		ucfg.Metrics = cfg.Metrics
		cfg.TransportFactory = func(id memnet.NodeID) (totem.Transport, error) {
			ep, err := udpnet.ListenConfig(id, registry, ucfg)
			if err != nil {
				return nil, err
			}
			fmt.Printf("node %s: UDP endpoint %s (batched=%v), ring of %d\n", id, ep.Addr(), ep.Batched(), len(registry))
			return ep, nil
		}
	}
	d, err := domain.New(cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	addStatusSections(ops, d, cfg.Admission != nil)
	if o.drainTimeout <= 0 {
		o.drainTimeout = 5 * time.Second
	}
	if o.node != "" {
		err = deployNode(d, o, style, nodeIdx)
	} else {
		err = deployDomain(d, o, style, ops)
	}
	if err != nil {
		return err
	}
	serve(o, ops, d)
	return nil
}

// startOps starts the ops HTTP server and threads its registry (and,
// with -trace, a tracer) into the domain config. Without -obs-addr the
// endpoints are built but not served, so the rest of the daemon mounts
// status sections and the admin surface unconditionally.
func startOps(o runOpts, cfg *domain.Config) (*obs.Server, error) {
	if o.obsAddr == "" {
		return obs.NewHandler(nil, nil), nil
	}
	cfg.Metrics = obs.NewRegistry()
	if o.trace {
		cfg.Tracer = obs.NewTracer(256)
		cfg.Tracer.Register(cfg.Metrics)
	}
	ops, err := obs.NewServerOpts(o.obsAddr, cfg.Metrics, cfg.Tracer, obs.ServerOptions{Pprof: o.pprof})
	if err != nil {
		return nil, fmt.Errorf("ops server: %w", err)
	}
	endpoints := "/metrics /healthz /readyz /statusz"
	if o.pprof {
		endpoints += " /debug/pprof/"
	}
	fmt.Printf("ops endpoints on http://%s/ (%s)\n", ops.Addr(), endpoints)
	return ops, nil
}

// addStatusSections puts the local processors' dedup-cache occupancy
// (each replica's operation table and the node's answered-operation
// table, identifiers and reply bytes), the state of their group
// directories and, under admission control, the gateways' admission state
// on /statusz.
func addStatusSections(ops *obs.Server, d *domain.Domain, admitting bool) {
	ops.AddStatusSection("dedup-cache", func() string {
		var b strings.Builder
		for i := 0; i < d.Nodes(); i++ {
			n := d.Node(i)
			for group, u := range n.RM.DedupOccupancy() {
				fmt.Fprintf(&b, "node %s group %d: %d entries, %d reply bytes\n", n.ID, group, u.Entries, u.ReplyBytes)
			}
			replies, replyBytes, answered := n.RM.RecordedReplies()
			fmt.Fprintf(&b, "node %s answered: %d entries, %d recorded replies, %d reply bytes\n", n.ID, answered, replies, replyBytes)
			fmt.Fprintf(&b, "node %s duplicates beyond the reply window: %d\n", n.ID, n.RM.Stats().DuplicatesBeyondWindow)
		}
		return b.String()
	})
	ops.AddStatusSection("directory", func() string {
		var b strings.Builder
		for i := 0; i < d.Nodes(); i++ {
			n := d.Node(i)
			s := n.RM.Stats()
			fmt.Fprintf(&b, "node %s directory: %d groups, awaiting=%v, %d snapshots adopted\n", n.ID, len(n.RM.Groups()), s.DirectoryAwaiting, s.MembershipSyncs)
		}
		return b.String()
	})
	if !admitting {
		return
	}
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

// addGateways starts one gateway per listen address, spread round-robin
// over the local processors.
func addGateways(d *domain.Domain, listen []string) error {
	for i, addr := range listen {
		gw, err := d.AddGateway(i%d.Nodes(), strings.TrimSpace(addr))
		if err != nil {
			return fmt.Errorf("gateway %d: %w", i, err)
		}
		fmt.Printf("gateway %d listening on %s\n", i, gw.Addr())
	}
	return nil
}

// deployDomain is the single-process deployment: the managers place the
// demo object and a replicated name service across the processors, the
// Resource Manager monitors them, and the admin surface can reconfigure
// all of it.
func deployDomain(d *domain.Domain, o runOpts, style replication.Style, ops *obs.Server) error {
	err := d.Manager().CreateReplicatedObject(demoGroup, ftmgmt.Properties{
		Style:           style,
		InitialReplicas: o.replicas,
		MinReplicas:     o.replicas,
		ObjectKey:       []byte(demoKey),
		TypeID:          demoType,
	}, demoFactory)
	if err != nil {
		return err
	}
	if o.monitor > 0 {
		d.Manager().Monitor(o.monitor)
	}
	// A replicated name service, bound under the conventional key, with
	// the demo object registered in it.
	err = d.Manager().CreateReplicatedObject(demoGroup+1, ftmgmt.Properties{
		Style:           replication.Active,
		InitialReplicas: min(2, d.Nodes()),
		MinReplicas:     1,
		ObjectKey:       []byte(naming.ObjectKey),
		TypeID:          naming.TypeID,
	}, func() (replication.Application, error) { return naming.NewService(), nil })
	if err != nil {
		return err
	}
	listen := make([]string, o.gateways)
	if o.listen != "" {
		listen = strings.Split(o.listen, ",")
	}
	if err := addGateways(d, listen); err != nil {
		return err
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
		d.Nodes(), o.replicas, style, demoKey, len(listen))
	fmt.Printf("object reference:\n%s\n", ref.String())
	fmt.Printf("name service reference (demo object bound as %q):\n%s\n", demoName, nsRef.String())
	registerAdmin(ops, d, o.drainTimeout)
	if ops.Addr() != "" {
		fmt.Printf("reconfiguration admin on http://%s/reconfig/ (views grow shrink replace upgrade gateway/add gateway/remove)\n", ops.Addr())
	}
	return nil
}

// deployNode is the one-member-per-process deployment. Placement is by
// convention over the sorted registry ids — the first -replicas of them
// (idx is this member's place) each host a replica of the demo object,
// and any member given -listen also hosts gateways — so the processes
// need no coordinator beyond the shared registry (docs/OPERATIONS.md
// "Real-network deployment"). CreateGroup is a delivered no-op on an
// existing id, so every process announces the group and the first
// delivery wins; the waits then synchronize the fleet.
func deployNode(d *domain.Domain, o runOpts, style replication.Style, idx int) error {
	const syncTimeout = 60 * time.Second
	n := d.Node(0)
	if err := n.RM.CreateGroup(demoGroup, style, []byte(demoKey)); err != nil {
		return err
	}
	if idx < o.replicas {
		if err := n.RM.JoinGroup(demoGroup, &experiments.RegisterApp{}); err != nil {
			return err
		}
	}
	if err := n.RM.WaitForMembers(demoGroup, o.replicas, syncTimeout); err != nil {
		return fmt.Errorf("demo group never reached %d replicas: %w", o.replicas, err)
	}
	if idx < o.replicas {
		if err := n.RM.WaitSynced(demoGroup, syncTimeout); err != nil {
			return fmt.Errorf("demo replica sync: %w", err)
		}
		fmt.Printf("node %s: hosting %s replica of %q (%d of %d)\n", n.ID, style, demoKey, idx+1, o.replicas)
	}
	if o.listen == "" {
		return nil
	}
	if err := addGateways(d, strings.Split(o.listen, ",")); err != nil {
		return err
	}
	ref, err := d.PublishIOR(demoType, []byte(demoKey))
	if err != nil {
		return err
	}
	fmt.Printf("object reference:\n%s\n", ref.String())
	return nil
}

// serve marks the process ready and blocks until a stop signal, then
// shuts down gracefully: every gateway drains concurrently — stops
// accepting, bleeds its in-flight invocations under the deadline, and
// hands remaining clients to whatever redundant gateways survive it (or,
// on full shutdown, to the clients' retry logic).
func serve(o runOpts, ops *obs.Server, d *domain.Domain) {
	ops.SetReady(true)
	fmt.Println("serving; interrupt to stop")
	if o.onReady != nil {
		o.onReady(d, ops)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case <-o.stop:
	}
	ops.SetReady(false)
	if gws := d.Gateways(); len(gws) > 0 {
		fmt.Println("draining gateways")
		var wg sync.WaitGroup
		for _, gw := range gws {
			wg.Add(1)
			go func(gw *core.Gateway) {
				defer wg.Done()
				_ = gw.Drain(o.drainTimeout)
			}(gw)
		}
		wg.Wait()
	}
	fmt.Println("shutting down")
}

// registerAdmin mounts the online-reconfiguration admin surface on the
// ops server. All mutating endpoints are POST; responses are plain text.
// The upgrade endpoint performs a rolling restart of the group onto
// fresh instances from the demo factory (each replacement catches up by
// checkpoint + log replay), which is the daemon-level stand-in for
// deploying a new application build.
func registerAdmin(ops *obs.Server, d *domain.Domain, drainTimeout time.Duration) {
	mgr := d.Manager()
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
	// viewOp mounts one membership operation on the group named by the
	// "group" parameter (default: the demo group), answering with the
	// view the operation produced.
	errNodeRequired := errors.New("node parameter required")
	viewOp := func(path string, op func(id replication.GroupID, r *http.Request) (replication.View, error)) {
		ops.Handle(path, post(func(w http.ResponseWriter, r *http.Request) {
			id := demoGroup
			if raw := r.FormValue("group"); raw != "" {
				n, err := strconv.ParseUint(raw, 10, 32)
				if err != nil {
					http.Error(w, fmt.Sprintf("bad group %q: %v", raw, err), http.StatusBadRequest)
					return
				}
				id = replication.GroupID(n)
			}
			v, err := op(id, r)
			switch {
			case err == errNodeRequired:
				http.Error(w, err.Error(), http.StatusBadRequest)
			case err != nil:
				http.Error(w, err.Error(), http.StatusInternalServerError)
			default:
				writeView(w, id, v)
			}
		}))
	}
	viewOp("/reconfig/grow", func(id replication.GroupID, _ *http.Request) (replication.View, error) {
		return mgr.Grow(id)
	})
	viewOp("/reconfig/shrink", func(id replication.GroupID, _ *http.Request) (replication.View, error) {
		return mgr.Shrink(id)
	})
	viewOp("/reconfig/replace", func(id replication.GroupID, r *http.Request) (replication.View, error) {
		node := r.FormValue("node")
		if node == "" {
			return replication.View{}, errNodeRequired
		}
		return mgr.Replace(id, memnet.NodeID(node))
	})
	viewOp("/reconfig/upgrade", func(id replication.GroupID, _ *http.Request) (replication.View, error) {
		return mgr.RollingUpgrade(id, demoFactory)
	})
	ops.Handle("/reconfig/views", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rm := d.Node(0).RM
		for _, id := range rm.Groups() {
			if v, ok := rm.View(id); ok {
				writeView(w, id, v)
			}
		}
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
		gws := d.Gateways()
		i := slices.IndexFunc(gws, func(gw *core.Gateway) bool { return gw.Addr() == addr })
		if i < 0 {
			http.Error(w, fmt.Sprintf("no gateway listening on %q", addr), http.StatusNotFound)
			return
		}
		if len(gws) == 1 {
			http.Error(w, "refusing to remove the last gateway", http.StatusConflict)
			return
		}
		if err := d.RemoveGateway(gws[i], drainTimeout); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fmt.Fprintf(w, "gateway %s drained and removed; references republished\n", addr)
	}))
}
