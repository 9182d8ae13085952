// Package sim exercises the simdet analyzer: functions rooted with the
// gwlint:simroot directive (standing in for the deterministic
// simulation harness) must not consult the wall clock, the global
// math/rand source, spawn goroutines, or let map iteration order escape
// into observable output.
package sim

import (
	"math/rand"
	"sort"
	"time"
)

// gwlint:simroot
func step() time.Duration {
	start := time.Now() // want `time\.Now on a virtual-clock path \(reachable via step\)`
	helper()
	return time.Since(start) // want `time\.Since on a virtual-clock path \(reachable via step\)`
}

// helper is not a root itself; it is reached through step and the
// report spells out the path.
func helper() {
	time.Sleep(time.Millisecond) // want `time\.Sleep on a virtual-clock path \(reachable via step → helper\)`
}

// gwlint:simroot
func draws(seed int64) int {
	// Constructors are the sanctioned path: a seeded source is exactly
	// how determinism is achieved.
	r := rand.New(rand.NewSource(seed))
	n := r.Intn(10)
	n += rand.Intn(10) // want `global math/rand\.Intn on a virtual-clock path \(reachable via draws\)`
	return n
}

// gwlint:simroot
func spawns(ch chan int) {
	go func() { ch <- 1 }() // want `go statement on a virtual-clock path \(reachable via spawns\)`
}

// gwlint:simroot
func publishes(m map[string]int, out chan int, sink func(string)) {
	for k := range m {
		sink(k) // want `call inside map iteration on a virtual-clock path \(reachable via publishes\)`
	}
	for _, v := range m {
		out <- v // want `channel send inside map iteration on a virtual-clock path \(reachable via publishes\)`
	}
}

// gwlint:simroot
func sorted(m map[string]int) []string {
	// The sanctioned idiom: collect the keys, sort, then act. Only
	// side-effect-free builtins run inside the iteration.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// gwlint:simroot
func snapshots(m map[string]int) map[string]int {
	// Map-to-map copies are commutative: order cannot escape.
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// offRoot is neither rooted nor reachable from a root: production code
// may read the wall clock freely.
func offRoot() time.Time { return time.Now() }

// gwlint:simroot
func sanctioned() {
	//lint:allow simdet the wall clock is the documented real-time default here
	time.Sleep(time.Millisecond)
}

// Core stands in for internal/totem's protocol core: its exported
// entry points carry the directive, and a wall-clock read below one is
// reported with the path through it.
type Core struct{ failAt time.Time }

// gwlint:simroot
func (c *Core) Tick(now time.Time) {
	if !c.failAt.After(now) {
		c.gather()
	}
}

func (c *Core) gather() {
	c.failAt = time.Now().Add(time.Second) // want `time\.Now on a virtual-clock path \(reachable via Tick → gather\)`
}
