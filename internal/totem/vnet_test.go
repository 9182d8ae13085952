package totem

import (
	"fmt"
	"hash/crc32"
	"slices"
	"testing"
	"time"

	"eternalgw/internal/memnet"
	"eternalgw/internal/sim"
)

// vnet is the virtual-time harness the clock-free core makes possible: N
// cores on a seeded memnet — its loss, duplication, random delay (hence
// reorder), partitions and crashes — whose delayed deliveries and the
// cores' deadlines are events of one sim.Clock. The clock only moves
// when nothing is left to do at the present instant, so a second of
// protocol time costs what its steps cost, there is no goroutine and no
// sleep, and a seed replays exactly.
type vnet struct {
	t     *testing.T
	clk   *sim.Clock
	net   *memnet.Network
	ids   []memnet.NodeID
	cores map[memnet.NodeID]*core
	eps   map[memnet.NodeID]*memnet.Endpoint
	woken map[memnet.NodeID]time.Time // the earliest tick the clock holds for each core

	drop func(to memnet.NodeID, data []byte) bool // aimed loss, at the receiver
	feed func()                                   // called before every step: a load generator

	got    map[memnet.NodeID][]vdelivery // what each core delivered, with resume marks
	marked map[memnet.NodeID]uint64      // each core's Resumed counter at its latest delivery
	rings  map[memnet.NodeID][]ConfigChange
	since  map[memnet.NodeID]int // how much each core had delivered when it installed its latest ring
	maxRtr int                   // the most retransmission requests any token carried

	// What makes a core's earlier deliveries not owed to agree (excused).
	named   map[uint64]ringRef        // the history each ring's tokens named, by ring id
	checked map[memnet.NodeID]ringRef // the ring each core last stood checked into
	owed    map[memnet.NodeID]bool    // cores that left a ring without the resume it asked of them
}

// vhop is the network's mean latency, so traffic moves the clock.
const vhop = 20 * time.Microsecond

// vdelivery is one delivery as the agreement checks compare it; resumed
// marks the first delivery after the core resumed at a horizon.
type vdelivery struct {
	ts      uint64
	sender  memnet.NodeID
	crc     uint32
	resumed bool
}

// same reports whether two cores delivered one message at one position.
func (d vdelivery) same(o vdelivery) bool {
	return d.ts == o.ts && d.sender == o.sender && d.crc == o.crc
}

// newVnet builds n founding cores v00.. with the tests' fast timeouts on
// a network seeded with seed; opts override its delay and add faults.
func newVnet(t *testing.T, n int, seed int64, mut func(*Config), opts ...memnet.Option) *vnet {
	t.Helper()
	clk := sim.NewClock()
	v := &vnet{
		t:       t,
		clk:     clk,
		net:     memnet.New(append([]memnet.Option{memnet.WithSeed(seed), memnet.WithClock(clk), memnet.WithMaxDelay(2 * vhop)}, opts...)...),
		cores:   make(map[memnet.NodeID]*core),
		eps:     make(map[memnet.NodeID]*memnet.Endpoint),
		woken:   make(map[memnet.NodeID]time.Time),
		got:     make(map[memnet.NodeID][]vdelivery),
		marked:  make(map[memnet.NodeID]uint64),
		rings:   make(map[memnet.NodeID][]ConfigChange),
		since:   make(map[memnet.NodeID]int),
		named:   make(map[uint64]ringRef),
		checked: make(map[memnet.NodeID]ringRef),
		owed:    make(map[memnet.NodeID]bool),
	}
	for i := 0; i < n; i++ {
		v.ids = append(v.ids, memnet.NodeID(fmt.Sprintf("v%02d", i)))
	}
	for _, id := range v.ids {
		id := id
		cfg := fastConfig()
		cfg.ID, cfg.Members = id, v.ids
		if mut != nil {
			mut(&cfg)
		}
		cfg.applyDefaults()
		ep, err := v.net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		v.eps[id] = ep
		v.cores[id] = newCore(cfg, v.now(), func(b []byte) {
			v.noteToken(b)
			_ = ep.Broadcast(b) // a crashed node's sends fail, as under Node
		}, func(ev Event) {
			if ev.Type == EventConfig {
				// Leaving a ring none of whose tokens reached it, a core has
				// kept its history; the ring may have named another.
				if n := len(v.rings[id]); n > 0 && v.checked[id].ID != v.rings[id][n-1].RingID && v.named[v.rings[id][n-1].RingID] != v.checked[id] {
					v.owed[id] = true
				}
				v.rings[id] = append(v.rings[id], ev.Config)
				v.since[id] = len(v.got[id])
				return
			}
			d := ev.Delivery
			r := v.cores[id].resumedN.Load()
			v.got[id] = append(v.got[id], vdelivery{d.Timestamp(), d.Sender, crc32.ChecksumIEEE(d.Payload), r != v.marked[id]})
			v.marked[id] = r
		})
	}
	return v
}

// now is the virtual clock as the cores are told it.
func (v *vnet) now() time.Time { return time.Unix(0, v.clk.Now()) }

// noteToken keeps the books on every token any core sends.
func (v *vnet) noteToken(data []byte) {
	if data[0] != kindToken {
		return
	}
	if tok, err := decodeToken(cdrSkipKind(data), nil); err == nil {
		v.maxRtr = max(v.maxRtr, len(tok.Rtr))
		v.named[tok.RingID] = tok.History
	}
}

// noteChecked keeps the books, after a step, on the ring a core stands
// checked into.
func (v *vnet) noteChecked(id memnet.NodeID) {
	if c := v.cores[id]; !c.unchecked {
		v.checked[id] = c.installed()
	}
}

// submit hands payloads to a core at the present instant.
func (v *vnet) submit(id memnet.NodeID, payloads ...[]byte) {
	v.cores[id].submit(v.now(), payloads)
}

// pump is the driver's part: it hands every core what its inbox holds
// until all are empty, then books each core's next deadline on the clock.
func (v *vnet) pump() {
	for busy := true; busy; {
		busy = false
		for _, id := range v.ids {
			select {
			case p := <-v.eps[id].Recv():
				busy = true
				if v.drop == nil || !v.drop(id, p.Payload) {
					v.cores[id].receive(v.now(), p.Payload, len(v.eps[id].Recv()))
					v.noteChecked(id)
				}
			default:
			}
		}
	}
	for _, id := range v.ids {
		id := id
		at := v.cores[id].next()
		if at.IsZero() || !v.woken[id].IsZero() && !at.Before(v.woken[id]) {
			continue
		}
		// A tick that finds nothing due does nothing, so one booked for a
		// deadline since disarmed or postponed is harmless.
		v.woken[id] = at
		v.clk.AfterFunc(at.Sub(v.now()), func() {
			v.woken[id] = time.Time{}
			v.cores[id].tick(v.now(), len(v.eps[id].Recv()))
			v.noteChecked(id)
		})
	}
}

// run steps the system until done reports true, or for limit of virtual
// time when done is nil. It reports whether done came true in time.
func (v *vnet) run(limit time.Duration, done func() bool) bool {
	expired := false
	v.clk.AfterFunc(limit, func() { expired = true })
	for {
		if v.feed != nil {
			v.feed()
		}
		v.pump()
		if done != nil && done() {
			return true
		}
		if expired {
			return done == nil
		}
		v.clk.Step()
	}
}

// settle runs until every listed core (all of them when none is listed)
// has installed one ring of exactly those members, delivered everything
// ordered in it, and has nothing left to send.
func (v *vnet) settle(limit time.Duration, ids ...memnet.NodeID) {
	v.t.Helper()
	if len(ids) == 0 {
		ids = v.ids
	}
	quiet := func() bool {
		first := v.cores[ids[0]]
		for _, id := range ids {
			c := v.cores[id]
			if c.gathering || c.unchecked || len(c.ring) != len(ids) || c.ringID != first.ringID ||
				c.deliveredSeq != first.deliveredSeq || c.deliveredSeq != c.highest ||
				len(c.pending) != 0 || len(c.fp.awaiting) != 0 {
				return false
			}
		}
		return true
	}
	if !v.run(limit, quiet) {
		for _, id := range ids {
			c := v.cores[id]
			v.t.Logf("%s: ring %d %v gathering %v unchecked %v delivered %d highest %d pending %d awaiting %d leader %q",
				id, c.ringID, c.ring, c.gathering, c.unchecked, c.deliveredSeq, c.highest, len(c.pending), len(c.fp.awaiting), c.fp.leader)
		}
		v.t.Fatalf("no quiescence among %v within %v of virtual time", ids, limit)
	}
}

// lastHistory checks that within one history id's stream is strictly
// increasing — so nothing was delivered twice — and returns the part
// delivered since its last resume, and whether there was one.
func (v *vnet) lastHistory(id memnet.NodeID) (tail []vdelivery, resumed bool) {
	v.t.Helper()
	got, from := v.got[id], 0
	for i, d := range got {
		if d.resumed {
			from, resumed = i, true
		} else if i > 0 && d.ts <= got[i-1].ts {
			v.t.Fatalf("%s: delivery %d at %#x does not follow %#x", id, i, d.ts, got[i-1].ts)
		}
	}
	if v.cores[id].resumedN.Load() != v.marked[id] {
		return nil, true // resumed, and nothing delivered since
	}
	return got[from:], resumed
}

// agree fails unless the listed cores delivered one stream. A core that
// never resumed must match the reference from the start; one that did is
// compared from its last resume on, which must be a suffix of the
// reference's stream.
func (v *vnet) agree(ref memnet.NodeID, ids ...memnet.NodeID) {
	v.t.Helper()
	want, resumed := v.lastHistory(ref)
	if resumed {
		v.t.Fatalf("reference %s resumed", ref)
	}
	at := make(map[uint64]int, len(want))
	for i, d := range want {
		at[d.ts] = i
	}
	for _, id := range ids {
		got, resumed := v.lastHistory(id)
		if len(got) == 0 {
			continue
		}
		start, ok := at[got[0].ts]
		if !ok || (!resumed && start != 0) || len(want)-start != len(got) {
			v.t.Fatalf("%s: %d deliveries from %#x on, %s has %d from there (known %v)", id, len(got), got[0].ts, ref, len(want)-start, ok)
		}
		for i, d := range got {
			if w := want[start+i]; !d.same(w) {
				v.t.Fatalf("%s: delivery %d from its resume = %#x from %s, %s has %#x from %s", id, i, d.ts, d.sender, ref, w.ts, w.sender)
			}
		}
	}
}

// excused reports whether what id delivered before the last ring is not
// owed to agree with the others, for one of the three reasons gathering
// leaves open because it is not atomic (there is no commit token; DESIGN.md
// section 5). Id installed a ring, not the founding one, whose token
// named no history: a member that returns while the others are gathering
// can leave all of a 3-ring with different last rings, no component of the
// merge then has a majority, and the ring merges the sequence spaces as it
// always did. Or id installed a ring under an id and a lowest member
// under which another core installed other members: the two pass for one
// component at the next merge. Or id installed a ring that kept a history
// it was not in, and the next one before any token of the first had
// reached it: the resume it owed it never learnt of.
func (v *vnet) excused(id memnet.NodeID) bool {
	return v.owed[id] || slices.ContainsFunc(v.rings[id], func(c ConfigChange) bool {
		if c.RingID > 1 && v.named[c.RingID] == (ringRef{}) {
			return true
		}
		return slices.ContainsFunc(v.ids, func(other memnet.NodeID) bool {
			return slices.ContainsFunc(v.rings[other], func(o ConfigChange) bool {
				return o.RingID == c.RingID && o.Members[0] == c.Members[0] && !slices.Equal(o.Members, c.Members)
			})
		})
	})
}

// agreeWhereTogether is what holds on any schedule, including the ones
// where members installed different rings under one id: what a core
// delivered on its own, in a ring the others were not in, is its own.
// Every core that never left the surviving history — never resumed, never
// excused — delivered one identical stream from the start. In the history
// each core that was not excused is in at the end, a sequence number means
// one message everywhere. And from the ring all of them installed last —
// from the first number every one of them delivered in it — all of them,
// excused or not, delivered one identical stream. It reports whether any
// core was excused.
func (v *vnet) agreeWhereTogether() (excused bool) {
	v.t.Helper()
	known := make(map[uint64]vdelivery)
	var from uint64
	var stayed memnet.NodeID // the first core that never left the surviving history
	for _, id := range v.ids {
		tail, resumed := v.lastHistory(id)
		if v.excused(id) {
			excused, tail = true, nil
		} else if !resumed && stayed == "" {
			stayed = id
		} else if !resumed && !slices.EqualFunc(tail, v.got[stayed], vdelivery.same) {
			v.t.Fatalf("%s and %s never left the surviving history and delivered %d and %d messages, or not the same ones", stayed, id, len(v.got[stayed]), len(tail))
		}
		for _, d := range tail {
			if m, ok := known[d.ts]; ok && !m.same(d) {
				v.t.Fatalf("%#x is a message from %s at one member and one from %s at %s", d.ts, m.sender, d.sender, id)
			}
			known[d.ts] = d
		}
		together := v.got[id][v.since[id]:]
		if len(together) == 0 {
			v.t.Fatalf("%s delivered nothing in the last ring", id)
		}
		from = max(from, together[0].ts)
	}
	var want []vdelivery
	for i, id := range v.ids {
		got := v.got[id][v.since[id]:]
		for len(got) > 0 && got[0].ts < from {
			got = got[1:]
		}
		if i == 0 {
			want = got
		} else if !slices.EqualFunc(got, want, vdelivery.same) {
			v.t.Fatalf("%s delivered %d messages from %#x on, %s %d, or not the same ones", id, len(got), from, v.ids[0], len(want))
		}
	}
	return excused
}

// resumed lists each core's Resumed counter, in id order.
func (v *vnet) resumed() []uint64 {
	out := make([]uint64, len(v.ids))
	for i, id := range v.ids {
		out[i] = v.cores[id].resumedN.Load()
	}
	return out
}
