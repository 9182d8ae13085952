// Package naming is a CosNaming-style name service for fault tolerance
// domains: a replicated object mapping names to stringified object
// references. The paper notes that Eternal's own management objects "are
// themselves implemented as collections of CORBA objects and, thus, can
// themselves be replicated and thereby benefit from Eternal's fault
// tolerance capabilities" (section 2) — the name service demonstrates
// the same pattern: it is an ordinary replication.Application, placed by
// the Replication Manager, invoked through gateways like any other
// object, and it survives replica failures like any other object.
//
// Clients hold only the name service's IOR (pointing, as always, at the
// gateways); every other reference is obtained by Resolve.
package naming

import (
	"fmt"
	"sort"
	"sync"

	"eternalgw/internal/cdr"
	"eternalgw/internal/ior"
	"eternalgw/internal/orb"
	"eternalgw/internal/replication"
)

// Conventional addressing for the name service.
const (
	// ObjectKey is the CORBA object key the service registers under.
	ObjectKey = "omg.org/NameService"
	// TypeID is the repository id used in published IORs.
	TypeID = "IDL:omg.org/CosNaming/NamingContext:1.0"
)

// Exception repository ids raised by the service.
const (
	RepoNotFound     = "IDL:omg.org/CosNaming/NamingContext/NotFound:1.0"
	RepoAlreadyBound = "IDL:omg.org/CosNaming/NamingContext/AlreadyBound:1.0"
)

// Service is the replicated name service application. It is
// deterministic: its state depends only on the totally-ordered
// bind/rebind/unbind stream.
type Service struct {
	mu      sync.Mutex
	entries map[string]string // name -> stringified IOR
}

var _ replication.Application = (*Service)(nil)

// NewService returns an empty name service.
func NewService() *Service {
	return &Service{entries: make(map[string]string)}
}

// Invoke implements the servant operations: bind, rebind, resolve,
// unbind, list.
func (s *Service) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op {
	case "bind":
		name := args.ReadString()
		ref := args.ReadString()
		if err := args.Err(); err != nil {
			return err
		}
		if _, ok := s.entries[name]; ok {
			return &orb.SystemException{RepoID: RepoAlreadyBound}
		}
		s.entries[name] = ref
		return nil
	case "rebind":
		name := args.ReadString()
		ref := args.ReadString()
		if err := args.Err(); err != nil {
			return err
		}
		s.entries[name] = ref
		return nil
	case "resolve":
		name := args.ReadString()
		if err := args.Err(); err != nil {
			return err
		}
		ref, ok := s.entries[name]
		if !ok {
			return &orb.SystemException{RepoID: RepoNotFound}
		}
		reply.WriteString(ref)
		return nil
	case "unbind":
		name := args.ReadString()
		if err := args.Err(); err != nil {
			return err
		}
		if _, ok := s.entries[name]; !ok {
			return &orb.SystemException{RepoID: RepoNotFound}
		}
		delete(s.entries, name)
		return nil
	case "list":
		names := make([]string, 0, len(s.entries))
		for name := range s.entries {
			names = append(names, name)
		}
		sort.Strings(names)
		reply.WriteULong(uint32(len(names)))
		for _, name := range names {
			reply.WriteString(name)
		}
		return nil
	default:
		return fmt.Errorf("naming: unknown operation %q", op)
	}
}

// State implements replication.Application.
func (s *Service) State() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.entries))
	for name := range s.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteULong(uint32(len(names)))
	for _, name := range names {
		w.WriteString(name)
		w.WriteString(s.entries[name])
	}
	return w.Bytes(), nil
}

// SetState implements replication.Application. Every name and
// reference is copied out of state, which is only lent.
func (s *Service) SetState(state []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := cdr.NewReader(state, cdr.BigEndian)
	n := r.ReadULong()
	// Each entry is two strings of at least four bytes (their length
	// prefixes); a count that cannot fit is hostile or corrupt and must
	// not size the allocation.
	if r.Err() != nil || int(n) > r.Remaining()/8 {
		return fmt.Errorf("naming: set state: bad entry count %d", n)
	}
	entries := make(map[string]string, n)
	for i := uint32(0); i < n; i++ {
		name := r.ReadString()
		entries[name] = r.ReadString()
	}
	if err := r.Err(); err != nil {
		return err
	}
	s.entries = entries
	return nil
}

// CallFunc is any invoker reaching the name service: a gateway
// connection, the enhanced client layer, or an in-domain diverted
// connection.
type CallFunc func(op string, args []byte) (*cdr.Reader, error)

// Resolver is the client side of the name service.
type Resolver struct {
	call CallFunc
}

// NewResolver wraps an invoker.
func NewResolver(call CallFunc) *Resolver {
	return &Resolver{call: call}
}

// ViaConn builds a resolver over a plain ORB connection to a gateway.
func ViaConn(conn *orb.Conn) *Resolver {
	return NewResolver(func(op string, args []byte) (*cdr.Reader, error) {
		return conn.Call([]byte(ObjectKey), op, args, orb.InvokeOptions{})
	})
}

// Bind registers ref under name; it fails if the name is taken.
func (r *Resolver) Bind(name string, ref ior.Ref) error {
	_, err := r.call("bind", nameRefArgs(name, ref))
	return err
}

// Rebind registers ref under name, replacing any existing binding.
func (r *Resolver) Rebind(name string, ref ior.Ref) error {
	_, err := r.call("rebind", nameRefArgs(name, ref))
	return err
}

// Resolve looks a name up and parses the bound reference.
func (r *Resolver) Resolve(name string) (ior.Ref, error) {
	rd, err := r.call("resolve", nameArgs(name))
	if err != nil {
		return ior.Ref{}, err
	}
	s := rd.ReadString()
	if err := rd.Err(); err != nil {
		return ior.Ref{}, err
	}
	return ior.Parse(s)
}

// Unbind removes a binding.
func (r *Resolver) Unbind(name string) error {
	_, err := r.call("unbind", nameArgs(name))
	return err
}

// List returns all bound names, sorted.
func (r *Resolver) List() ([]string, error) {
	rd, err := r.call("list", nil)
	if err != nil {
		return nil, err
	}
	n := rd.ReadULong()
	if rd.Err() != nil || int(n) > rd.Remaining()/4 {
		return nil, fmt.Errorf("naming: list: bad name count %d", n)
	}
	names := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		names = append(names, rd.ReadString())
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	return names, nil
}

func nameArgs(name string) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteString(name)
	return w.Bytes()
}

func nameRefArgs(name string, ref ior.Ref) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteString(name)
	w.WriteString(ref.String())
	return w.Bytes()
}
