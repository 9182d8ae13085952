package giop

import (
	"maps"
	"sync"
	"sync/atomic"
)

// An IDL interface has a fixed set of operations, so a decoded request's
// operation name almost always repeats one decoded before. The names are
// interned in one process-wide table: a decode that finds its name there
// allocates nothing. The table is bounded, in names and in bytes per
// name, so a client that invents names cannot pin memory; a name it does
// not take is copied into a string of its own, as any name was before.
// There is one table for the process, as there is one sync.Pool: every
// layer decodes through the same free functions, and the names are the
// same at all of them.
const (
	maxInternedNames = 256
	maxInternedLen   = 64
)

// opNames is the intern table. A lookup loads the published map without
// a lock; an insert copies it under mu and publishes the copy, so no
// published map is ever written. At most maxInternedNames inserts ever
// happen, each copying fewer entries than that.
var opNames struct {
	mu    sync.Mutex
	table atomic.Pointer[map[string]string]
}

func internedNames() map[string]string {
	if p := opNames.table.Load(); p != nil {
		return *p
	}
	return nil
}

// operationName returns the operation name b holds, a view into a
// message body, as a string that does not alias b.
func operationName(b []byte) string {
	names := internedNames()
	if s, ok := names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) == 0 || len(s) > maxInternedLen || len(names) >= maxInternedNames {
		return s
	}
	opNames.mu.Lock()
	defer opNames.mu.Unlock()
	names = internedNames()
	if interned, ok := names[s]; ok {
		return interned
	}
	if len(names) >= maxInternedNames {
		return s
	}
	next := make(map[string]string, len(names)+1)
	maps.Copy(next, names)
	next[s] = s
	opNames.table.Store(&next)
	return s
}
