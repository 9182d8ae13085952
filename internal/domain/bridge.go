package domain

import (
	"sync"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/ior"
	"eternalgw/internal/replication"
	"eternalgw/internal/thinclient"
)

// BridgeApp is the outbound half of figure 1's inter-domain connection:
// a replicated object inside one fault tolerance domain whose replicas
// forward every invocation over TCP/IIOP to another domain's gateway
// through the enhanced client-side interception layer.
//
// All replicas of a bridge share a deterministic unique client
// identifier, and each forwards a call under the operation identifier
// its replica's Handle gives it (figure 6), so the remote domain's
// gateway and servers deduplicate their parallel forwards into exactly
// one operation — the same mechanism (section 3.5) that protects against
// reissues after gateway failover — whichever replica joined last.
type BridgeApp struct {
	remote ior.Ref
	cfg    thinclient.Config
	handle *replication.Handle

	mu     sync.Mutex
	client *thinclient.Client
}

var _ replication.Application = (*BridgeApp)(nil)

// NewBridgeApp creates a bridge replica application targeting the remote
// reference. uniqueID must be identical for all replicas of the bridge
// group and distinct between bridge groups.
func NewBridgeApp(remote ior.Ref, uniqueID []byte, timeout time.Duration) *BridgeApp {
	cfg := thinclient.Config{UniqueID: uniqueID}
	if timeout > 0 {
		cfg.CallTimeout = timeout
	}
	return &BridgeApp{remote: remote, cfg: cfg}
}

// Bind takes the Handle of the replica the bridge joins as, before the
// replica executes anything (replication.Mechanisms.Arm).
func (b *BridgeApp) Bind(h *replication.Handle) { b.handle = h }

// Invoke forwards the operation to the remote domain and copies the
// reply body through.
func (b *BridgeApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	raw := args.ReadOctets(args.Remaining())
	if err := args.Err(); err != nil {
		return err
	}
	b.mu.Lock()
	if b.client == nil {
		c, err := thinclient.Dial(b.remote, b.cfg)
		if err != nil {
			b.mu.Unlock()
			return err
		}
		b.client = c
	}
	c := b.client
	b.mu.Unlock()

	id, err := b.handle.Next()
	if err != nil {
		return err
	}
	r, err := c.CallAs(id.ParentTS, id.ChildSeq, op, raw)
	if err != nil {
		return err
	}
	reply.WriteOctets(r.ReadOctets(r.Remaining()))
	return r.Err()
}

// State implements replication.Application; bridges are stateless: what
// a forward is identified by comes from the invocation it is made in.
func (b *BridgeApp) State() ([]byte, error) { return nil, nil }

// SetState implements replication.Application; it keeps nothing.
func (b *BridgeApp) SetState([]byte) error { return nil }

// Close severs the bridge's outbound connection.
func (b *BridgeApp) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.client != nil {
		_ = b.client.Close()
		b.client = nil
	}
}
