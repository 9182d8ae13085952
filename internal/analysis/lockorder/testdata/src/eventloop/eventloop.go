// Package eventloop exercises lockorder's event-loop check: functions
// marked gwlint:eventloop run on a totem node's protocol goroutine and
// must not reach a blocking operation.
package eventloop

import (
	"net"
	"sync"
	"time"
)

type state struct {
	dir        sync.RWMutex
	leaf       sync.Mutex
	wg         sync.WaitGroup
	unbuffered chan struct{}
	buffered   chan struct{}
}

func newState() *state {
	return &state{unbuffered: make(chan struct{}), buffered: make(chan struct{}, 8)}
}

// gwlint:eventloop
func handler(s *state) {
	time.Sleep(time.Millisecond) // want `time.Sleep on the protocol goroutine \(reachable via handler\)`
	s.dir.Lock()                 // want `write-Lock of a sync.RWMutex`
	s.wg.Wait()                  // want `sync\.WaitGroup\.Wait on the protocol goroutine`
	helper(s)
}

// helper is reached through handler, and the report spells out the path.
func helper(s *state) {
	s.unbuffered <- struct{}{} // want `channel send may block the protocol goroutine \(reachable via handler → helper\)`
}

// gwlint:eventloop
func dials() {
	_, _ = net.Dial("tcp", "127.0.0.1:0") // want `net.Dial on the protocol goroutine`
}

// gwlint:eventloop
func writes(c net.Conn, bufs net.Buffers) {
	_, _ = c.Write(nil)    // want `socket write on the protocol goroutine`
	_, _ = bufs.WriteTo(c) // want `socket write on the protocol goroutine`
}

// gwlint:eventloop
func waits(s *state) {
	select { // want `select without default may block`
	case <-s.unbuffered:
	}
}

// gwlint:eventloop
func fine(s *state) {
	// Leaf mutex sections and read locks are the sharded tables' design.
	s.leaf.Lock()
	s.leaf.Unlock()
	s.dir.RLock()
	s.dir.RUnlock()
	// Every make site of s.buffered has a constant capacity.
	s.buffered <- struct{}{}
	select {
	case s.unbuffered <- struct{}{}:
	default:
	}
	// A goroutine runs off the loop.
	go func() {
		time.Sleep(time.Millisecond)
		s.unbuffered <- struct{}{}
	}()
	time.Sleep(time.Millisecond) //lint:allow lockorder exercised only from the membership path, which may block
}
