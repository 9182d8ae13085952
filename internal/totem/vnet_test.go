package totem

import (
	"fmt"
	"hash/crc32"
	"slices"
	"testing"
	"time"

	"eternalgw/internal/memnet"
	"eternalgw/internal/vclock"
)

// vnet is the virtual-time harness the clock-free core makes possible: N
// cores on a seeded memnet — its loss, duplication, random delay (hence
// reorder), partitions and crashes — whose delayed deliveries and the
// cores' deadlines are events of one vclock.Clock. The clock only moves
// when nothing is left to do at the present instant, so a second of
// protocol time costs what its steps cost, there is no goroutine and no
// sleep, and a seed replays exactly.
type vnet struct {
	t     *testing.T
	clk   *vclock.Clock
	net   *memnet.Network
	ids   []memnet.NodeID
	cores map[memnet.NodeID]*Core
	eps   map[memnet.NodeID]*memnet.Endpoint
	woken map[memnet.NodeID]time.Time // the earliest tick the clock holds for each core

	mut  func(*Config)                             // what the test changes of every core's configuration
	drop func(to memnet.NodeID, data []byte) bool  // aimed loss, at the receiver
	hear func(from, to memnet.NodeID, data []byte) // called with every datagram a core is about to receive
	feed func()                                    // called before every step: a load generator

	got    map[memnet.NodeID][]vdelivery    // what each core delivered, with resume marks
	marked map[memnet.NodeID]uint64         // each core's Resumed counter at its latest delivery
	rings  map[memnet.NodeID][]ConfigChange // the rings each core installed, as the harness saw them
	told   []verdict                        // the rings each core reported, with what it was told
	toldAt map[memnet.NodeID]uint64         // each core's Resumed counter when it last reported a ring
	since  map[memnet.NodeID]int            // how much each core had delivered when it installed its latest ring
	maxRtr int                              // the most retransmission requests any token carried
	ledger *datagramLedger                  // every datagram any core broadcast, checksummed then and when the test ends

	// Whose history each core holds, by the books.
	decided map[ringRef]token           // each ring's decided commit, by the ring's name
	was     map[memnet.NodeID]ringRef   // the ring each core had installed after its latest step
	from    map[memnet.NodeID][]ringRef // the ring each core stood in when it installed each of rings
}

// vhop is the network's mean latency, so traffic moves the clock.
const vhop = 20 * time.Microsecond

// verdict is one ConfigChange as a core emitted it, and whether the core
// resumed at a horizon since the one before.
type verdict struct {
	id      memnet.NodeID
	c       ConfigChange
	resumed bool
}

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
	clk := vclock.New()
	v := &vnet{
		t:       t,
		clk:     clk,
		mut:     mut,
		net:     memnet.New(append([]memnet.Option{memnet.WithSeed(seed), memnet.WithClock(clk), memnet.WithMaxDelay(2 * vhop)}, opts...)...),
		cores:   make(map[memnet.NodeID]*Core),
		eps:     make(map[memnet.NodeID]*memnet.Endpoint),
		woken:   make(map[memnet.NodeID]time.Time),
		got:     make(map[memnet.NodeID][]vdelivery),
		marked:  make(map[memnet.NodeID]uint64),
		rings:   make(map[memnet.NodeID][]ConfigChange),
		toldAt:  make(map[memnet.NodeID]uint64),
		since:   make(map[memnet.NodeID]int),
		decided: make(map[ringRef]token),
		was:     make(map[memnet.NodeID]ringRef),
		from:    make(map[memnet.NodeID][]ringRef),
		ledger:  &datagramLedger{},
	}
	// On memnet every receiver holds the sender's slice, and a core frames a
	// payload in the buffer it was submitted in: nobody, the sender
	// included, may have written to a datagram after it was broadcast.
	t.Cleanup(func() { v.ledger.verify(t, "when the test ended") })
	for i := 0; i < n; i++ {
		v.ids = append(v.ids, memnet.NodeID(fmt.Sprintf("v%02d", i)))
	}
	for _, id := range v.ids {
		ep, err := v.net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		v.eps[id] = ep
		v.boot(id)
	}
	return v
}

// boot gives id a core that was never in a ring, as a process started
// now, and opens the books on it afresh.
func (v *vnet) boot(id memnet.NodeID) {
	cfg := fastConfig()
	cfg.ID, cfg.Members = id, v.ids
	if v.mut != nil {
		v.mut(&cfg)
	}
	cfg.applyDefaults()
	ep := v.eps[id]
	v.got[id], v.rings[id], v.from[id], v.since[id], v.marked[id], v.toldAt[id] = nil, nil, nil, 0, 0, 0
	delete(v.was, id)
	delete(v.woken, id)
	v.told = slices.DeleteFunc(v.told, func(w verdict) bool { return w.id == id })
	v.cores[id] = NewCore(cfg, v.now(), func(b []byte) {
		v.noteToken(b)
		v.ledger.note(id, b)
		_ = ep.Broadcast(b) // a crashed node's sends fail, as under Node
	}, func(ev Event) {
		r := v.cores[id].resumedN.Load()
		if ev.Type == EventConfig {
			// A ring is reported where it is installed, so this is where
			// the ring began.
			v.since[id] = len(v.got[id])
			v.told = append(v.told, verdict{id, ev.Config, r != v.toldAt[id]})
			v.toldAt[id] = r
			return
		}
		d := ev.Delivery
		v.got[id] = append(v.got[id], vdelivery{d.Timestamp(), d.Sender, crc32.ChecksumIEEE(d.Payload), r != v.marked[id]})
		v.marked[id] = r
	})
}

// now is the virtual clock as the cores are told it.
func (v *vnet) now() time.Time { return time.Unix(0, v.clk.Now()) }

// ringKey names a ring as the cores that installed it know it: two
// commits under one id can both be decided where they share no member.
func ringKey(c ConfigChange) string { return fmt.Sprint(c.RingID, c.Members) }

// noteToken keeps the books on every token any core sends: a decided
// commit says which history its ring keeps.
func (v *vnet) noteToken(data []byte) {
	if data[0] != kindToken {
		return
	}
	if tok, err := decodeToken(cdrSkipKind(data), nil); err == nil {
		v.maxRtr = max(v.maxRtr, len(tok.Rtr))
		if tok.Decided {
			v.decided[ringRef{ID: tok.RingID, Low: tok.Members[0]}] = tok
		}
	}
}

// noteChecked keeps the books, after a step, on the rings a core has
// installed and the ring it stood in before each.
func (v *vnet) noteChecked(id memnet.NodeID) {
	c := v.cores[id]
	if n := len(v.rings[id]); c.ring != nil && (n == 0 || v.rings[id][n-1].RingID != c.ringID) {
		v.rings[id] = append(v.rings[id], ConfigChange{RingID: c.ringID, Members: c.ring})
		v.from[id] = append(v.from[id], v.was[id])
	}
	v.was[id] = c.last
}

// submit hands payloads to a core at the present instant.
func (v *vnet) submit(id memnet.NodeID, payloads ...[]byte) {
	c := v.cores[id]
	framed := make([][]byte, len(payloads))
	for i, p := range payloads {
		framed[i] = c.framed(p)
	}
	c.Submit(v.now(), framed)
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
					if v.hear != nil {
						v.hear(p.From, id, p.Payload)
					}
					v.cores[id].Receive(v.now(), p.Payload, len(v.eps[id].Recv()))
					v.noteChecked(id)
				}
			default:
			}
		}
	}
	for _, id := range v.ids {
		id := id
		at := v.cores[id].Next()
		if at.IsZero() || !v.woken[id].IsZero() && !at.Before(v.woken[id]) {
			continue
		}
		// A tick that finds nothing due does nothing, so one booked for a
		// deadline since disarmed or postponed is harmless.
		v.woken[id] = at
		v.clk.AfterFunc(at.Sub(v.now()), func() {
			v.woken[id] = time.Time{}
			v.cores[id].Tick(v.now(), len(v.eps[id].Recv()))
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
			if c.gathering || len(c.ring) != len(ids) || c.ringID != first.ringID ||
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
			v.t.Logf("%s: ring %d %v gathering %v commit %v delivered %d highest %d pending %d awaiting %d leader %q",
				id, c.ringID, c.ring, c.gathering, c.commit, c.deliveredSeq, c.highest, len(c.pending), len(c.fp.awaiting), c.fp.leader)
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

// agreeWhereTogether is what holds on any schedule: what a core
// delivered on its own, in a ring the others were not in, is its own.
// Every core that never left the surviving history — never resumed —
// delivered one identical stream from the start. In the history each core
// is in at the end, a sequence number means one message everywhere. And
// from the ring all of them installed last — from the first number every
// one of them delivered in it — all of them delivered one identical
// stream.
func (v *vnet) agreeWhereTogether() {
	v.t.Helper()
	known := make(map[uint64]vdelivery)
	var from uint64
	var stayed memnet.NodeID // the first core that never left the surviving history
	for _, id := range v.ids {
		tail, resumed := v.lastHistory(id)
		if !resumed && stayed == "" {
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
}

// toldRight fails unless every ConfigChange a core emitted was for a ring
// the harness saw it install, with the verdict the harness's own books
// give. The ring's decided commit must have been sent with these members;
// the core continues exactly when the history that commit keeps is the one
// its own entry names, and it resumed at a horizon exactly when it does
// not. And its entry names the ring the books had it standing in when it
// installed this one — none, in a founding ring — or, where the creator
// vouched for it, a ring the core was a member of and missed the install
// of, which kept the history the books have it standing in.
func (v *vnet) toldRight() {
	v.t.Helper()
	for _, w := range v.told {
		rings := v.rings[w.id]
		i := slices.IndexFunc(rings, func(c ConfigChange) bool { return c.RingID == w.c.RingID })
		if i < 0 || !slices.Equal(rings[i].Members, w.c.Members) {
			v.t.Fatalf("%s reported ring %d %v, which it did not install", w.id, w.c.RingID, w.c.Members)
		}
		tok, sent := v.decided[ringRef{ID: w.c.RingID, Low: w.c.Members[0]}]
		if !sent || !slices.Equal(tok.Members, w.c.Members) {
			v.t.Fatalf("%s reported ring %d %v, of which no decided commit was sent", w.id, w.c.RingID, w.c.Members)
		}
		stood, said := v.from[w.id][i], tok.Entries[slices.Index(tok.Members, w.id)].Last
		if missed := v.decided[said]; said != stood && (stood == ringRef{} || missed.kept() != stood || !slices.Contains(missed.Members, w.id)) {
			v.t.Fatalf("%s stood in %v and its entry in the commit of ring %d says %v", w.id, stood, w.c.RingID, said)
		}
		if want := tok.kept() == said; w.c.Continues != want || w.resumed == want {
			v.t.Fatalf("%s was told Continues = %v of ring %d %v (history %v, resumed %v, stood in %v, installed %v)", w.id, w.c.Continues,
				w.c.RingID, w.c.Members, tok.kept(), w.resumed, stood, rings[:i])
		}
	}
}

// donorless lists the rings every member of which reported and none was
// told it continues: nobody there holds the history the ring keeps, and
// whoever rebuilds from a member that does waits for ever.
func (v *vnet) donorless() []string {
	reports, donors := make(map[string]int), make(map[string]int)
	for _, w := range v.told {
		reports[ringKey(w.c)]++
		if w.c.Continues {
			donors[ringKey(w.c)]++
		}
	}
	var out []string
	for _, w := range v.told {
		if k := ringKey(w.c); reports[k] == len(w.c.Members) && donors[k] == 0 && !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	return out
}

// resumed lists each core's Resumed counter, in id order.
func (v *vnet) resumed() []uint64 {
	out := make([]uint64, len(v.ids))
	for i, id := range v.ids {
		out[i] = v.cores[id].resumedN.Load()
	}
	return out
}

// TestFollowerAsksForTheLastBatchOfAnIdleEpoch: the last batch of a
// leader epoch is lost at one follower and nothing more is submitted. No
// later batch shows the follower the gap; the heartbeat says how far the
// sequencer has ordered, and the follower asks (it used to stall until
// the next submission, whenever that came).
func TestFollowerAsksForTheLastBatchOfAnIdleEpoch(t *testing.T) {
	v := newVnet(t, 3, 13, func(c *Config) { c.Ordering = OrderingLeader })
	v.settle(time.Second)
	seq := v.cores[v.ids[0]]
	if !v.run(time.Second, func() bool { return seq.fp.leader != "" }) {
		t.Fatal("no sequencer was promoted")
	}
	seq = v.cores[seq.fp.leader]
	follower := v.ids[0]
	if follower == seq.cfg.ID {
		follower = v.ids[1]
	}
	lost := 0
	v.drop = func(to memnet.NodeID, data []byte) bool {
		if to == follower && data[0] == kindBatch && lost == 0 {
			lost++
			return true
		}
		return false
	}
	before := len(v.got[follower])
	v.submit(seq.cfg.ID, []byte("last"))
	if !v.run(2*seq.heartbeatInterval(), func() bool { return len(v.got[follower]) > before }) || lost != 1 {
		t.Fatalf("%s lost %d batches and delivered %d messages within two heartbeats of the last batch", follower, lost, len(v.got[follower])-before)
	}
	v.settle(time.Second)
	v.agree(seq.cfg.ID, v.ids...)
}
