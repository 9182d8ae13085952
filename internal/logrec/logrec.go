// Package logrec implements the Eternal Logging-Recovery Mechanisms: a
// message log and checkpoint store that, together with the Replication
// Mechanisms, provides recovery of passively replicated objects and state
// transfer to new and recovering replicas (paper section 2.2).
//
// A Log records, per object group, the most recent checkpoint of the
// application state and the totally-ordered invocations delivered since
// that checkpoint — on a member that executes them and on one that only
// follows alike. Recovery loads the checkpoint and replays the logged
// invocations, reconstructing exactly the primary's state because the
// invocation stream is totally ordered and the application deterministic.
package logrec

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNoCheckpoint reports recovery from a group with no checkpoint.
var ErrNoCheckpoint = errors.New("logrec: no checkpoint recorded")

// Checkpoint is a captured application state together with the position
// in the total order it reflects.
type Checkpoint struct {
	// Seq is the Totem sequence number of the last invocation folded
	// into State.
	Seq uint64
	// OpCount counts operations executed up to the checkpoint.
	OpCount uint64
	// State is the application state blob.
	State []byte
}

// Entry is one logged invocation.
type Entry struct {
	// Seq is the Totem sequence number the invocation was delivered at.
	Seq uint64
	// Data is the encoded invocation (an encapsulated IIOP request).
	Data []byte
}

// Log is an in-memory per-group checkpoint and invocation log. It is
// safe for concurrent use. The process-local log models the per-
// processor "Log" boxes of figure 2; durability across process crashes
// is out of scope because a recovering replica re-fetches state from the
// surviving replicas rather than from its own disk.
type Log struct {
	mu     sync.Mutex
	groups map[uint32]*groupLog
}

type groupLog struct {
	checkpoint *Checkpoint
	entries    []Entry
}

// NewLog returns an empty log.
func NewLog() *Log {
	return &Log{groups: make(map[uint32]*groupLog)}
}

func (l *Log) group(g uint32) *groupLog {
	gl, ok := l.groups[g]
	if !ok {
		gl = &groupLog{}
		l.groups[g] = gl
	}
	return gl
}

// Checkpoint replaces group g's checkpoint and truncates the invocation
// log entries that the checkpoint subsumes (those with Seq <= cp.Seq).
func (l *Log) Checkpoint(g uint32, cp Checkpoint) {
	l.mu.Lock()
	defer l.mu.Unlock()
	gl := l.group(g)
	cpCopy := cp
	cpCopy.State = append([]byte(nil), cp.State...)
	gl.checkpoint = &cpCopy
	kept := gl.entries[:0]
	for _, e := range gl.entries {
		if e.Seq > cp.Seq {
			kept = append(kept, e)
		}
	}
	gl.entries = kept
}

// AppendOwned records one invocation for group g and keeps e.Data as it
// is: bytes nobody will write to again — the caller's own copy, or the
// delivered datagram that carries this invocation alone, which other
// members' logs may share. Recover's entries share them too.
func (l *Log) AppendOwned(g uint32, e Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	gl := l.group(g)
	gl.entries = append(gl.entries, e)
}

// Recover returns group g's checkpoint and the invocations logged after
// it, in total order.
func (l *Log) Recover(g uint32) (Checkpoint, []Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	gl, ok := l.groups[g]
	if !ok || gl.checkpoint == nil {
		return Checkpoint{}, nil, fmt.Errorf("group %d: %w", g, ErrNoCheckpoint)
	}
	cp := *gl.checkpoint
	cp.State = append([]byte(nil), gl.checkpoint.State...)
	entries := make([]Entry, len(gl.entries))
	copy(entries, gl.entries)
	return cp, entries, nil
}

// EntryCount reports the number of logged invocations for group g.
func (l *Log) EntryCount(g uint32) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	gl, ok := l.groups[g]
	if !ok {
		return 0
	}
	return len(gl.entries)
}

// HasCheckpoint reports whether group g has a checkpoint.
func (l *Log) HasCheckpoint(g uint32) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	gl, ok := l.groups[g]
	return ok && gl.checkpoint != nil
}

// Drop forgets everything recorded for group g.
func (l *Log) Drop(g uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.groups, g)
}
