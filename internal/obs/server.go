package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// StatusFunc renders one named section of the /statusz page.
type StatusFunc func() string

// Server is the ops HTTP endpoint of a process: liveness and readiness
// probes, the Prometheus scrape target, and a human-oriented /statusz
// with the tracer's recent invocations and whatever status sections the
// embedding process registers (e.g. per-group dedup-cache occupancy).
type Server struct {
	reg    *Registry
	tracer *Tracer
	opts   ServerOptions
	start  time.Time

	ln   net.Listener
	srv  *http.Server
	wg   sync.WaitGroup
	once sync.Once

	muxOnce sync.Once
	mux     *http.ServeMux

	ready atomic.Bool

	mu       sync.Mutex
	sections []statusSection
}

type statusSection struct {
	name string
	fn   StatusFunc
}

// ServerOptions are optional ops-server features.
type ServerOptions struct {
	// Pprof mounts the net/http/pprof profiling handlers under
	// /debug/pprof/, so CPU and heap profiles of the datapath can be
	// captured in place. Off by default: the profile endpoints expose
	// process internals and cost CPU while sampling, so enabling them is
	// an explicit operator decision.
	Pprof bool
}

// NewServer starts the ops server on addr ("host:port"; port 0 for
// ephemeral). Either reg or tracer may be nil; the endpoints then render
// what exists.
func NewServer(addr string, reg *Registry, tracer *Tracer, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := NewHandler(reg, tracer, opts)
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// NewHandler builds the ops endpoints without a listener, for embedding
// in an existing mux or an httptest server.
func NewHandler(reg *Registry, tracer *Tracer, opts ServerOptions) *Server {
	return &Server{reg: reg, tracer: tracer, opts: opts, start: time.Now()}
}

// Handler returns the ops mux (usable directly with httptest). The mux
// is built once and stored, so routes registered later through Handle
// are served by listeners already using it.
func (s *Server) Handler() http.Handler {
	s.muxOnce.Do(func() {
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", s.handleHealthz)
		mux.HandleFunc("/readyz", s.handleReadyz)
		mux.HandleFunc("/metrics", s.handleMetrics)
		mux.HandleFunc("/statusz", s.handleStatusz)
		if s.opts.Pprof {
			// Explicit registrations on this mux; the package-level handlers
			// net/http/pprof installs on http.DefaultServeMux are not served.
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		s.mux = mux
	})
	return s.mux
}

// Handle registers an additional route on the ops mux — the extension
// point embedding processes use to mount admin surfaces (e.g. online
// reconfiguration) next to the probes. Safe to call while the server is
// serving; it follows http.ServeMux semantics, including panicking on a
// duplicate pattern.
func (s *Server) Handle(pattern string, h http.Handler) {
	_ = s.Handler() // ensure the stored mux exists
	s.mux.Handle(pattern, h)
}

// Addr returns the listen address (empty for handler-only servers).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// SetReady flips the /readyz state; processes call it once their domain
// is synchronized and gateways are listening.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// AddStatusSection registers a named /statusz section.
func (s *Server) AddStatusSection(name string, fn StatusFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sections = append(s.sections, statusSection{name: name, fn: fn})
}

// Close stops the listener and waits for the serve loop.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	var err error
	s.once.Do(func() {
		err = s.srv.Close()
		s.wg.Wait()
	})
	return err
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = fmt.Fprintln(w, "not ready")
		return
	}
	_, _ = fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var b strings.Builder
	fmt.Fprintf(&b, "eternalgw ops status\nuptime: %v\nready: %v\n",
		time.Since(s.start).Round(time.Millisecond), s.ready.Load())

	if s.tracer != nil {
		recent := s.tracer.Recent()
		fmt.Fprintf(&b, "\n== recent traces (%d retained, %d in flight) ==\n",
			len(recent), s.tracer.ActiveCount())
		const maxShown = 32
		for i, tr := range recent {
			if i == maxShown {
				fmt.Fprintf(&b, "... %d more\n", len(recent)-maxShown)
				break
			}
			state := "done"
			if !tr.Done {
				state = "incomplete"
			}
			fmt.Fprintf(&b, "trace %s %s total=%v\n", tr.Key, state, tr.Total().Round(time.Microsecond))
			for _, h := range tr.Breakdown() {
				fmt.Fprintf(&b, "  %-20s -> %-20s %v\n", h.From, h.To, h.D.Round(time.Microsecond))
			}
		}
	}

	s.mu.Lock()
	sections := append([]statusSection(nil), s.sections...)
	s.mu.Unlock()
	sort.SliceStable(sections, func(i, j int) bool { return sections[i].name < sections[j].name })
	for _, sec := range sections {
		fmt.Fprintf(&b, "\n== %s ==\n%s", sec.name, strings.TrimRight(sec.fn(), "\n")+"\n")
	}
	_, _ = w.Write([]byte(b.String()))
}
