// Package locks exercises the lockorder analyzer: acquisition cycles,
// recursive locking, cross-shard acquisition of a sharded class, and
// stored callbacks invoked under a held lock — plus the shapes that must
// stay silent (consistent ordering, read-read nesting, the
// snapshot-then-invoke idiom, parameter and local-literal exemptions).
package locks

import "sync"

type pair struct {
	a sync.Mutex
	b sync.Mutex
}

// abba and baab acquire the two classes in opposite orders: the classic
// deadlock cycle, reported once per pair at the lexicographically first
// edge with the counter-witness position inline.
func abba(p *pair) {
	p.a.Lock()
	defer p.a.Unlock()
	p.b.Lock() // want `lock order cycle: .*pair\.b acquired while .*pair\.a is held here, but .*pair\.a is acquired while .*pair\.b is held at`
	defer p.b.Unlock()
}

func baab(p *pair) {
	p.b.Lock()
	defer p.b.Unlock()
	p.a.Lock()
	defer p.a.Unlock()
}

type ordered struct {
	first  sync.Mutex
	second sync.Mutex
}

// Consistent ordering across every path is the discipline; no report.
func lockBoth(o *ordered) {
	o.first.Lock()
	defer o.first.Unlock()
	o.second.Lock()
	defer o.second.Unlock()
}

func lockBothAgain(o *ordered) {
	o.first.Lock()
	defer o.first.Unlock()
	o.second.Lock()
	defer o.second.Unlock()
}

type rec struct {
	mu sync.Mutex
	n  int
}

// outer re-acquires mu through inner: sync mutexes are not reentrant.
func (r *rec) outer() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inner() // want `rec\.mu acquired while already held .*; sync mutexes are not reentrant`
}

func (r *rec) inner() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
}

type readers struct {
	x sync.RWMutex
	y sync.RWMutex
}

// Consistently ordered read locks nest freely. (Opposite orders would
// still be a cycle: Go's RWMutex blocks new readers once a writer
// waits, so read-read cycles deadlock through a pending writer.)
func readBoth(r *readers) {
	r.x.RLock()
	defer r.x.RUnlock()
	r.y.RLock()
	defer r.y.RUnlock()
}

func readBothAgain(r *readers) {
	r.x.RLock()
	defer r.x.RUnlock()
	r.y.RLock()
	defer r.y.RUnlock()
}

type table struct {
	shards [4]shard
}

type shard struct {
	mu sync.Mutex
	m  map[string]int
}

// move acquires a second shard of the same class while one is held:
// with src and dst free to cross, the pairwise order is whatever the
// workload makes it.
func (t *table) move(src, dst int, k string) {
	t.shards[src].mu.Lock()
	defer t.shards[src].mu.Unlock()
	t.shards[dst].mu.Lock() // want `acquisition of sharded lock class .*shard\.mu while another lock of the same class is held`
	defer t.shards[dst].mu.Unlock()
	t.shards[dst].m[k] = t.shards[src].m[k]
	delete(t.shards[src].m, k)
}

// get touches one shard per call: the sharded design working as
// intended.
func (t *table) get(i int, k string) int {
	t.shards[i].mu.Lock()
	defer t.shards[i].mu.Unlock()
	return t.shards[i].m[k]
}

type notifier struct {
	mu   sync.Mutex
	hook func(string)
	last string
}

// badNotify dispatches the stored hook while mu is held: whatever the
// hook acquires is invisible here, which is exactly how module-wide
// cycles are laundered past static analysis.
func (n *notifier) badNotify(ev string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.last = ev
	n.hook(ev) // want `stored callback invoked while .*notifier\.mu is held`
}

// fire carries the dynamic dispatch; badVia extends the held section
// into it.
func (n *notifier) fire(ev string) {
	n.hook(ev)
}

func (n *notifier) badVia(ev string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fire(ev) // want `call to fire invokes a stored callback \(at .*\) while .*notifier\.mu is held`
}

// goodNotify is the sanctioned idiom: snapshot the callback under the
// lock, invoke it after release.
func (n *notifier) goodNotify(ev string) {
	n.mu.Lock()
	n.last = ev
	hook := n.hook
	n.mu.Unlock()
	if hook != nil {
		hook(ev)
	}
}

// audited keeps the dispatch under the lock deliberately; the allow
// carries the argument.
func (n *notifier) audited(ev string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	//lint:allow lockorder the hook is documented lock-free and set only at construction
	n.hook(ev)
}

type waiter struct {
	mu sync.Mutex
}

// await evaluates an explicitly passed condition under the lock: a
// parameter is part of the function's contract, not a stored callback.
func (w *waiter) await(cond func() bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for !cond() {
	}
}

// validateThenSet calls a local only ever assigned function literals:
// its body is right there and is simulated as its own root.
func (n *notifier) validateThenSet(ev string) {
	validate := func(s string) bool { return s != "" }
	n.mu.Lock()
	defer n.mu.Unlock()
	if validate(ev) {
		n.last = ev
	}
}

// pick is a generic function: a call that names its type argument is as
// static as one that lets it be inferred.
func pick[T any](v T) T { return v }

// instantiatedUnderLock calls pick, explicitly instantiated, under the
// lock: no stored callback.
func (n *notifier) instantiatedUnderLock(ev string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.last = pick[string](ev)
}
