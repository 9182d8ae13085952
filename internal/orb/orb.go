// Package orb is a minimal CORBA Object Request Broker: an IIOP server
// with an object adapter dispatching to servants keyed by object key, and
// an IIOP client with request/reply matching over TCP.
//
// It plays the role of the commercial ORBs in the paper: the unreplicated
// external clients of a fault tolerance domain run this client; the
// gateway speaks this wire protocol on its external side; and replicated
// servants inside the domain are hosted behind the replication
// mechanisms. Only the wire contract matters to the gateway — GIOP 1.0
// framing, request ids, object keys and service contexts — which this
// package implements per CORBA 2.3.
package orb

import (
	"errors"
	"fmt"

	"eternalgw/internal/cdr"
)

// Errors reported by the package.
var (
	// ErrNoSuchObject reports an unknown object key.
	ErrNoSuchObject = errors.New("orb: no such object")
	// ErrClosed reports use of a closed connection or server.
	ErrClosed = errors.New("orb: closed")
	// ErrTimeout reports an invocation that exceeded its deadline.
	ErrTimeout = errors.New("orb: invocation timed out")
)

// SystemException is a CORBA system exception surfaced to clients.
type SystemException struct {
	RepoID    string
	Minor     uint32
	Completed uint32
}

// Error implements the error interface.
func (e *SystemException) Error() string {
	return fmt.Sprintf("orb: system exception %s (minor %d, completed %d)", e.RepoID, e.Minor, e.Completed)
}

// Well-known system exception repository ids.
const (
	RepoObjectNotExist = "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0"
	RepoUnknown        = "IDL:omg.org/CORBA/UNKNOWN:1.0"
	RepoCommFailure    = "IDL:omg.org/CORBA/COMM_FAILURE:1.0"
	// RepoTransient is the CORBA "overloaded, try again" exception;
	// gateways raise it (with the admission verdict in the minor code)
	// when shedding requests under overload or drain.
	RepoTransient = "IDL:omg.org/CORBA/TRANSIENT:1.0"
)

// minorNoSuchObject is the OBJECT_NOT_EXIST minor code for a request
// whose object key matches no servant in the adapter (documented in
// docs/OPERATIONS.md).
const (
	minorNoSuchObject uint32 = 0
)

// Servant handles invocations on one object. Implementations decode
// in-parameters from args and encode results into reply. Returning an
// error produces a CORBA system exception at the client.
//
// reply writes into the buffer the reply is sent from, behind what is
// built of it already: reply.Bytes() and reply.Len() take that in, and
// the buffer is the sender's once Invoke returns. args likewise reads the
// buffer the request arrived in. Both are the dispatcher's, reset for the
// next request as soon as Invoke returns: a servant keeps neither the
// reader nor the writer, nor any bytes of theirs.
//
// A servant used inside a fault tolerance domain must be deterministic:
// its state changes may depend only on the operation, its arguments and
// the current state, never on wall-clock time or randomness, because
// every replica executes the same totally-ordered invocation stream.
type Servant interface {
	Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error
}

// ServantFunc adapts a function to the Servant interface.
type ServantFunc func(op string, args *cdr.Reader, reply *cdr.Writer) error

// Invoke calls f.
func (f ServantFunc) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	return f(op, args, reply)
}
