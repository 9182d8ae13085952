package fifo

import (
	"cmp"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// order lists the keys oldest-first, as eviction will take them.
func order[K comparable](t *Map[K]) []K {
	out := make([]K, 0, len(t.ring))
	for i := range t.ring {
		out = append(out, t.ring[(t.head+i)%len(t.ring)])
	}
	return out
}

// withReply lists, oldest-first, the keys that still hold a reply.
func withReply[K comparable](t *Map[K]) []K {
	var out []K
	for _, k := range order(t) {
		if reply, _ := t.Get(k); reply != nil {
			out = append(out, k)
		}
	}
	return out
}

func TestMapTable(t *testing.T) {
	even := func(k int) bool { return k%2 == 0 }
	for _, tc := range []struct {
		name     string
		capacity int
		window   int   // reply bytes; zero is room for all
		size     int   // bytes per reply; zero is one
		adds     []int // Add(k, size bytes of k) in order; -k adds k bare
		drop     func(int) bool
		after    []int  // adds after the drop
		want     string // keys oldest-first at the end
		replies  string // those of them that hold a reply; empty is all
	}{
		{name: "under capacity keeps everything", capacity: 4, adds: []int{1, 2, 3}, want: "[1 2 3]"},
		{name: "full evicts oldest first", capacity: 3, adds: []int{1, 2, 3, 4, 5}, want: "[3 4 5]"},
		{name: "re-adding a present key neither reorders nor evicts", capacity: 3, adds: []int{1, 2, 3, 1, 1}, want: "[1 2 3]"},
		{name: "an evicted key reads as fresh", capacity: 2, adds: []int{1, 2, 3, 1}, want: "[3 1]"},
		{name: "capacity one holds the newest", capacity: 1, adds: []int{1, 2, 2, 3}, want: "[3]"},
		{name: "capacity below one is one", capacity: 0, adds: []int{1, 2}, want: "[2]"},
		// The ring holds 3,4,5,6 with its head mid-buffer when the drop
		// runs: the survivors must keep their relative age.
		{name: "DeleteFunc keeps order across the wrap", capacity: 4, adds: []int{1, 2, 3, 4, 5, 6}, drop: even, want: "[3 5]"},
		{name: "eviction resumes oldest-first after DeleteFunc", capacity: 4, adds: []int{1, 2, 3, 4, 5, 6}, drop: even, after: []int{7, 9, 11}, want: "[5 7 9 11]"},
		{name: "DeleteFunc of everything leaves a usable table", capacity: 2, adds: []int{2, 4}, drop: even, after: []int{1, 3, 5}, want: "[3 5]"},
		{name: "DeleteFunc on an empty table", capacity: 2, drop: even, after: []int{1}, want: "[1]"},

		{name: "the oldest reply is stripped first and its key stays", capacity: 8, window: 10, size: 4, adds: []int{1, 2, 3, 4}, want: "[1 2 3 4]", replies: "[3 4]"},
		{name: "bare keys cost the window nothing", capacity: 8, window: 8, size: 4, adds: []int{-1, 2, -3, 4, -5}, want: "[1 2 3 4 5]", replies: "[2 4]"},
		{name: "a bare key takes the reply it is given later", capacity: 8, window: 8, size: 4, adds: []int{-1, 2, 1}, want: "[1 2]", replies: "[1 2]"},
		{name: "a reply given to an old key is the oldest reply", capacity: 8, window: 8, size: 4, adds: []int{-1, 2, 3, 4, 1, 5}, want: "[1 2 3 4 5]", replies: "[4 5]"},
		{name: "a reply larger than the window is kept bare", capacity: 8, window: 7, size: 4, adds: []int{1}, after: []int{20}, want: "[1 20]", replies: "[1]"},
		{name: "a key evicted with its reply frees the bytes", capacity: 2, window: 8, size: 4, adds: []int{1, 2, 3, 4}, want: "[3 4]", replies: "[3 4]"},
		{name: "stripping resumes where it stood after DeleteFunc", capacity: 8, window: 8, size: 4, adds: []int{1, 2, 3, 4}, drop: even, after: []int{5, 7}, want: "[1 3 5 7]", replies: "[5 7]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m Map[int]
			window, size := tc.window, max(tc.size, 1)
			if window == 0 {
				window = 1 << 20
			}
			m.Init(tc.capacity, window)
			add := func(k int) {
				if k < 0 {
					m.Add(-k, nil)
					return
				}
				n := size
				if k >= 20 {
					n = k // the oversized reply
				}
				reply := make([]byte, n)
				reply[0] = byte(k)
				m.Add(k, reply)
			}
			for _, k := range tc.adds {
				add(k)
			}
			if tc.drop != nil {
				m.DeleteFunc(tc.drop)
			}
			for _, k := range tc.after {
				add(k)
			}
			got := order(&m)
			if fmt.Sprint(got) != tc.want {
				t.Fatalf("keys oldest-first = %v, want %s", got, tc.want)
			}
			if m.Len() != len(got) {
				t.Fatalf("Len = %d with %d keys in the ring", m.Len(), len(got))
			}
			kept := withReply(&m)
			if want := cmp.Or(tc.replies, tc.want); fmt.Sprint(kept) != want {
				t.Fatalf("keys holding a reply = %v, want %s", kept, want)
			}
			for _, k := range kept {
				if reply, ok := m.Get(k); !ok || reply[0] != byte(k) || !m.Has(k) {
					t.Fatalf("Get(%d) = %v, %v", k, reply, ok)
				}
			}
			if n, bytes := m.Replies(); n != len(kept) || bytes != len(kept)*size || bytes > window {
				t.Fatalf("Replies = %d in %d bytes, want %d of %d bytes inside a window of %d", n, bytes, len(kept), size, window)
			}
		})
	}
}

func TestMapFirstValueWins(t *testing.T) {
	var m Map[string]
	m.Init(4, 64)
	if !m.Add("op", []byte{1}) {
		t.Fatal("first Add not reported as inserted")
	}
	if m.Add("op", []byte{2}) {
		t.Fatal("second Add of a present key reported as inserted")
	}
	if v, _ := m.Get("op"); len(v) != 1 || v[0] != 1 {
		t.Fatalf("Get = %v, want the first recorded reply", v)
	}
	if _, ok := m.Get("absent"); ok || m.Has("absent") {
		t.Fatal("absent key reads as present")
	}
	// An identifier recorded alone is present, and the first reply it is
	// given wins in its turn.
	if !m.Add("bare", nil) || m.Add("bare", []byte{3}) || m.Add("bare", []byte{4}) {
		t.Fatal("Add of a bare key: inserted must be reported for the first alone")
	}
	if v, ok := m.Get("bare"); !ok || len(v) != 1 || v[0] != 3 {
		t.Fatalf("Get = %v, %v, want the first reply the bare key was given", v, ok)
	}
}

// TestMapIdentifierOutlivesItsReply: the reply goes when the window says
// so, the identifier when capacity newer ones have come and not before.
func TestMapIdentifierOutlivesItsReply(t *testing.T) {
	const capacity, size = 8, 4
	var m Map[int]
	m.Init(capacity, 2*size)
	reply := func() []byte { return make([]byte, size) }
	m.Add(0, reply())
	for newer := 1; newer <= capacity; newer++ {
		m.Add(newer, reply())
		held, present := m.Get(0)
		if want := newer < capacity; present != want {
			t.Fatalf("after %d newer keys of a capacity of %d: present = %v", newer, capacity, present)
		}
		if want := newer < 2; (held != nil) != want {
			t.Fatalf("after %d newer replies in a window of two: reply held = %v", newer, held != nil)
		}
	}
}

// mapModel is the obviously-correct table: keys oldest-first in a slice,
// every bound enforced by a scan.
type mapModel struct {
	capacity, window int
	keys             []int
	vals             map[int][]byte
}

func (m *mapModel) bytes() (n, total int) {
	for _, v := range m.vals {
		if v != nil {
			n++
			total += len(v)
		}
	}
	return n, total
}

func (m *mapModel) add(k int, reply []byte) bool {
	if len(reply) == 0 || len(reply) > m.window {
		reply = nil
	}
	held, present := m.vals[k]
	if present && (held != nil || reply == nil) {
		return false
	}
	if !present {
		if len(m.keys) == m.capacity {
			delete(m.vals, m.keys[0])
			m.keys = m.keys[1:]
		}
		m.keys = append(m.keys, k)
	}
	m.vals[k] = reply
	for _, old := range m.keys {
		if _, total := m.bytes(); total <= m.window {
			break
		}
		m.vals[old] = nil
	}
	return !present
}

func (m *mapModel) deleteFunc(del func(int) bool) {
	kept := m.keys[:0]
	for _, k := range m.keys {
		if del(k) {
			delete(m.vals, k)
		} else {
			kept = append(kept, k)
		}
	}
	m.keys = kept
}

// drive applies one random operation to both tables.
func drive(rng *rand.Rand, m *Map[int], model *mapModel, step int) error {
	if rng.Intn(10) == 0 {
		mod := 2 + rng.Intn(3)
		del := func(k int) bool { return k%mod == 0 }
		m.DeleteFunc(del)
		model.deleteFunc(del)
		return nil
	}
	k := rng.Intn(3 * model.capacity)
	var reply []byte
	if rng.Intn(4) != 0 {
		reply = make([]byte, 1+rng.Intn(model.window+2)) // now and then too large
		reply[0] = byte(step)
	}
	if got, want := m.Add(k, reply), model.add(k, reply); got != want {
		return fmt.Errorf("Add(%d, %d bytes) inserted=%v, model %v", k, len(reply), got, want)
	}
	return nil
}

// TestMapMatchesModel drives a Map and the model with the same random
// operations and compares them after every step.
func TestMapMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(8)
		model := &mapModel{capacity: capacity, window: 1 + rng.Intn(24), vals: map[int][]byte{}}
		var m Map[int]
		m.Init(capacity, model.window)
		for step := 0; step < 400; step++ {
			if err := drive(rng, &m, model, step); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if got := order(&m); fmt.Sprint(got) != fmt.Sprint(model.keys) {
				t.Fatalf("seed %d step %d: order %v, model %v", seed, step, got, model.keys)
			}
			if m.Len() != len(model.keys) || m.Len() > capacity {
				t.Fatalf("seed %d step %d: Len %d, model %d, capacity %d", seed, step, m.Len(), len(model.keys), capacity)
			}
			for k, want := range model.vals {
				if v, ok := m.Get(k); !ok || fmt.Sprint(v) != fmt.Sprint(want) {
					t.Fatalf("seed %d step %d: Get(%d) = %v, %v; want %v", seed, step, k, v, ok, want)
				}
			}
			wantN, wantBytes := model.bytes()
			if n, bytes := m.Replies(); n != wantN || bytes != wantBytes {
				t.Fatalf("seed %d step %d: Replies %d in %d bytes, model %d in %d", seed, step, n, bytes, wantN, wantBytes)
			}
		}
	}
}

// TestMapRepliesStayInsideTheWindow is the bound as a property: after any
// sequence of Add and DeleteFunc the kept replies fit the window, and the
// counts are those of a walk over the table.
func TestMapRepliesStayInsideTheWindow(t *testing.T) {
	property := func(seed int64, capacity, window uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		model := &mapModel{capacity: 1 + int(capacity%16), window: int(window % 64), vals: map[int][]byte{}}
		var m Map[int]
		m.Init(model.capacity, model.window)
		for step := 0; step < 200; step++ {
			if err := drive(rng, &m, model, step); err != nil {
				t.Log(err)
				return false
			}
			n, bytes := m.Replies()
			walked, walkedBytes := 0, 0
			for _, k := range withReply(&m) {
				reply, _ := m.Get(k)
				walked++
				walkedBytes += len(reply)
			}
			if bytes > model.window || n != walked || bytes != walkedBytes {
				t.Logf("step %d: %d replies in %d bytes, a walk finds %d in %d, window %d", step, n, bytes, walked, walkedBytes, model.window)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMapAddDoesNotAllocateWhenFull pins the per-request cost: once the
// table is at capacity an insert-with-eviction reuses the ring slot, and
// stripping a reply allocates nothing either.
func TestMapAddDoesNotAllocateWhenFull(t *testing.T) {
	var m Map[uint64]
	m.Init(64, 8*16)
	reply := make([]byte, 16)
	next := uint64(0)
	for ; next < 256; next++ {
		m.Add(next, reply)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.Add(next, reply)
		next++
	})
	if allocs != 0 {
		t.Fatalf("Add on a full table allocates %.1f times per call", allocs)
	}
}

// TestMapDeleteFuncDoesNotAllocate pins the departed-client cleanup,
// which runs on the replication event loop: the ring is compacted in
// place, wrapped or not, whether or not anything is deleted.
func TestMapDeleteFuncDoesNotAllocate(t *testing.T) {
	var m Map[uint64]
	m.Init(64, 1<<20)
	next := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ { // past capacity: the head sits mid-ring
			m.Add(next, nil)
			next++
		}
		m.DeleteFunc(func(uint64) bool { return false })
		m.DeleteFunc(func(k uint64) bool { return k%3 == 0 })
	})
	if allocs != 0 {
		t.Fatalf("DeleteFunc allocates %.1f times per call", allocs)
	}
}
