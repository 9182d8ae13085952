package fifo

import (
	"fmt"
	"math/rand"
	"testing"
)

// order lists the keys oldest-first, as eviction will take them.
func order[K comparable, V any](t *Map[K, V]) []K {
	out := make([]K, 0, len(t.ring))
	for i := range t.ring {
		out = append(out, t.ring[(t.head+i)%len(t.ring)])
	}
	return out
}

func TestMapTable(t *testing.T) {
	even := func(k int) bool { return k%2 == 0 }
	for _, tc := range []struct {
		name     string
		capacity int
		adds     []int // Add(k, k*10) in order
		drop     func(int) bool
		after    []int  // adds after the drop
		want     string // keys oldest-first at the end
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m Map[int, int]
			m.Init(tc.capacity)
			for _, k := range tc.adds {
				m.Add(k, k*10)
			}
			if tc.drop != nil {
				m.DeleteFunc(tc.drop)
			}
			for _, k := range tc.after {
				m.Add(k, k*10)
			}
			got := order(&m)
			if fmt.Sprint(got) != tc.want {
				t.Fatalf("keys oldest-first = %v, want %s", got, tc.want)
			}
			if m.Len() != len(got) {
				t.Fatalf("Len = %d with %d keys in the ring", m.Len(), len(got))
			}
			for _, k := range got {
				if v, ok := m.Get(k); !ok || v != k*10 || !m.Has(k) {
					t.Fatalf("Get(%d) = %d, %v", k, v, ok)
				}
			}
		})
	}
}

func TestMapFirstValueWins(t *testing.T) {
	var m Map[string, int]
	m.Init(4)
	if _, inserted := m.Add("op", 1); !inserted {
		t.Fatal("first Add not reported as inserted")
	}
	if _, inserted := m.Add("op", 2); inserted {
		t.Fatal("second Add of a present key reported as inserted")
	}
	if v, _ := m.Get("op"); v != 1 {
		t.Fatalf("Get = %d, want the first recorded value", v)
	}
	if _, ok := m.Get("absent"); ok || m.Has("absent") {
		t.Fatal("absent key reads as present")
	}
}

// TestMapMatchesModel drives a Map and an obviously-correct slice model
// with the same random operations and compares them after every step.
func TestMapMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(8)
		var m Map[int, int]
		m.Init(capacity)
		var model []int // keys oldest-first
		vals := map[int]int{}
		for step := 0; step < 400; step++ {
			if rng.Intn(10) == 0 {
				mod := 2 + rng.Intn(3)
				del := func(k int) bool { return k%mod == 0 }
				m.DeleteFunc(del)
				kept := model[:0]
				for _, k := range model {
					if del(k) {
						delete(vals, k)
					} else {
						kept = append(kept, k)
					}
				}
				model = kept
			} else {
				k := rng.Intn(3 * capacity)
				_, present := vals[k]
				evicted, inserted := m.Add(k, step)
				if inserted == present {
					t.Fatalf("seed %d step %d: Add(%d) inserted=%v with present=%v", seed, step, k, inserted, present)
				}
				wantEvicted := 0 // the zero value unless the insert pushed the oldest out
				if !present {
					if len(model) == capacity {
						wantEvicted = vals[model[0]]
						delete(vals, model[0])
						model = model[1:]
					}
					model = append(model, k)
					vals[k] = step
				}
				if evicted != wantEvicted {
					t.Fatalf("seed %d step %d: Add(%d) evicted value %d, want %d", seed, step, k, evicted, wantEvicted)
				}
			}
			if got := order(&m); fmt.Sprint(got) != fmt.Sprint(model) {
				t.Fatalf("seed %d step %d: order %v, model %v", seed, step, got, model)
			}
			if m.Len() != len(model) || m.Len() > capacity {
				t.Fatalf("seed %d step %d: Len %d, model %d, capacity %d", seed, step, m.Len(), len(model), capacity)
			}
			for k, want := range vals {
				if v, ok := m.Get(k); !ok || v != want {
					t.Fatalf("seed %d step %d: Get(%d) = %d, %v; want %d", seed, step, k, v, ok, want)
				}
			}
		}
	}
}

// TestMapAddDoesNotAllocateWhenFull pins the per-request cost: once the
// table is at capacity an insert-with-eviction reuses the ring slot.
func TestMapAddDoesNotAllocateWhenFull(t *testing.T) {
	var m Map[uint64, struct{}]
	m.Init(64)
	next := uint64(0)
	for ; next < 256; next++ {
		m.Add(next, struct{}{})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.Add(next, struct{}{})
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
	var m Map[uint64, struct{}]
	m.Init(64)
	next := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ { // past capacity: the head sits mid-ring
			m.Add(next, struct{}{})
			next++
		}
		m.DeleteFunc(func(uint64) bool { return false })
		m.DeleteFunc(func(k uint64) bool { return k%3 == 0 })
	})
	if allocs != 0 {
		t.Fatalf("DeleteFunc allocates %.1f times per call", allocs)
	}
}
