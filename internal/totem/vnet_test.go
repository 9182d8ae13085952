package totem

import (
	"bytes"
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
// installed and the ring it stood in before each, and checks its
// stability horizon: every member of its ring that has installed the ring
// too has delivered through it.
func (v *vnet) noteChecked(id memnet.NodeID) {
	c := v.cores[id]
	if n := len(v.rings[id]); c.ring != nil && (n == 0 || v.rings[id][n-1].RingID != c.ringID) {
		v.rings[id] = append(v.rings[id], ConfigChange{RingID: c.ringID, Members: c.ring})
		v.from[id] = append(v.from[id], v.was[id])
	}
	v.was[id] = c.last
	for _, m := range c.ring {
		if o := v.cores[m]; o.ringID == c.ringID && !o.gathering && o.deliveredSeq < c.Stable() {
			v.t.Fatalf("%s holds ring %d stable through %d, and its member %s has delivered through %d", id, c.ringID, c.Stable(), m, o.deliveredSeq)
		}
	}
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
// of, which kept the history the books have it standing in. It is told
// the ring is primary exactly when the ring holds most of the configured
// processors.
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
		if want := 2*len(w.c.Members) > len(v.ids); w.c.Primary != want {
			v.t.Fatalf("%s was told Primary = %v of ring %d %v, of %d configured", w.id, w.c.Primary, w.c.RingID, w.c.Members, len(v.ids))
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

// steady submits one payload per listed member every period of virtual
// time until stop is called. Its submissions are events of the clock, so
// an idle leader epoch, which books few deadlines, takes them at their
// times, not in bursts at its next heartbeat as load's feed would.
func (v *vnet) steady(period time.Duration, ids ...memnet.NodeID) (stop func()) {
	stopped, k := false, 0
	var next func()
	next = func() {
		if stopped {
			return
		}
		for _, id := range ids {
			k++
			v.submit(id, []byte(fmt.Sprintf("%-64s", fmt.Sprint(id, "/", k))))
		}
		v.clk.AfterFunc(period, next)
	}
	next()
	return func() { stopped = true }
}

// TestQueuedAtInstallIsSequenced: every member of a leader-mode ring has
// payloads queued while the ring forms. The rotation that installs the
// ring orders none of them, so the creator's first plain visit finds it
// quiescent and promotes, and the sequencer orders them all: no token
// passes beyond the commit's two rotations, and no payload is
// token-ordered. (A ring that took its set-up traffic on the token went
// on rotating until that traffic had drained, one rotation per message.)
// The network reorders, so on most of these seeds a member's first
// forward reaches another member ahead of the promotion.
func TestQueuedAtInstallIsSequenced(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			v := newVnet(t, 4, seed, func(c *Config) { c.Ordering = OrderingLeader })
			for _, id := range v.ids {
				v.submit(id, []byte(fmt.Sprint("queued/", id)), []byte(fmt.Sprint("queued again/", id)))
			}
			v.settle(time.Second)
			var passes uint64
			for _, id := range v.ids {
				c := v.cores[id]
				if c.fp.leader != v.ids[0] || c.fp.promoteSeq != 0 {
					t.Fatalf("%s is in the epoch of %q from %d, want the creator's from 0", id, c.fp.leader, c.fp.promoteSeq)
				}
				// A forward that overtakes the promotion is held for the reference
				// that orders it, not parked behind a nak.
				if n := c.refMissN.Load(); n != 0 {
					t.Fatalf("%s had %d references sent again in full", id, n)
				}
				passes += c.tokenPassN.Load()
			}
			if want := uint64(2 * len(v.ids)); passes != want {
				t.Fatalf("the token was passed %d times, want the commit's two rotations, %d", passes, want)
			}
			if n := v.ledger.count(kindRegular, kindPacked); n != 0 {
				t.Fatalf("%d payload datagrams were token-ordered", n)
			}
			v.agree(v.ids[0], v.ids...)
			if n := len(v.got[v.ids[0]]); n != 2*len(v.ids) {
				t.Fatalf("%s delivered %d of %d", v.ids[0], n, 2*len(v.ids))
			}
		})
	}
}

// TestOwedRecoveryHoldsPromotion: a leader epoch ends with a message the
// sequencer ordered missing at one member, and the ring that follows is
// installed owing it, with payloads queued at every member. Its
// retransmission is lost three times over. While it is owed nobody
// promotes — the ring is token-ordered, as any ring not yet quiescent —
// and the promotion that follows is agreed by every member at a sequence
// at or above the owed message's, which every member has delivered by
// then (the harness checks each core's Stable against every member's
// watermark after each step).
func TestOwedRecoveryHoldsPromotion(t *testing.T) {
	v, seq, behind := leaderVnet(t, 24)
	founding := v.cores[seq].ringID
	v.submit(seq, []byte("owed"))
	owed := v.cores[seq].fp.seq
	lost := 0
	v.drop = func(to memnet.NodeID, data []byte) bool {
		if to != behind || !bytes.Contains(data, []byte("owed")) {
			return false
		}
		if data[0] == kindBatch {
			return true // the epoch's batch and its retransmissions
		}
		for _, id := range v.ids {
			if c := v.cores[id]; c.ringID != founding && c.fp.leader != "" {
				t.Fatalf("%s is in an epoch of ring %d, and %s still lacks %d", id, c.ringID, behind, owed)
			}
		}
		lost++
		return lost <= 3
	}
	v.silence(founding)
	if !v.run(time.Second, func() bool {
		return !slices.ContainsFunc(v.ids, func(id memnet.NodeID) bool { c := v.cores[id]; return !c.gathering && c.ringID == founding })
	}) {
		t.Fatal("the epoch did not end")
	}
	for _, id := range v.ids {
		v.submit(id, []byte(fmt.Sprint("queued/", id)))
	}
	v.settle(time.Second)
	if !v.run(time.Second, func() bool {
		return !slices.ContainsFunc(v.ids, func(id memnet.NodeID) bool { return v.cores[id].fp.leader == "" })
	}) {
		t.Fatal("the ring was never promoted")
	}
	if lost <= 3 {
		t.Fatalf("%d retransmissions were lost, want 3 and one through", lost)
	}
	start := v.cores[seq].fp.promoteSeq
	for _, id := range v.ids {
		if c := v.cores[id]; c.ringID == founding || c.fp.promoteSeq != start || start < owed {
			t.Fatalf("%s is in ring %d from %d, %s from %d; the owed message is %d", id, c.ringID, c.fp.promoteSeq, seq, start, owed)
		}
	}
	v.agree(seq, v.ids...)
}

// TestLagDemotionStaysBounded: one follower's acks are lost under
// sustained submissions at every member, so the sequencer's stability
// horizon stands still and it demotes at lagLimit, with the
// membership unchanged. The follower confirms nothing for as long as the
// load lasts: a ring that promoted again at once would demote again at
// once, and every demotion is a gather. One demotion, then rotation until
// the load stops — and a promotion once it has. Where a ring that installs
// owing nothing promoted at its first plain visit whatever it replaced,
// seeds 31, 33 and 35 demoted two or three times.
func TestLagDemotionStaysBounded(t *testing.T) {
	for seed := int64(31); seed <= 35; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			v, seq, slow := leaderVnet(t, seed)
			v.drop = func(to memnet.NodeID, data []byte) bool {
				if to != seq || data[0] != kindAck {
					return false
				}
				a, err := decodeAck(cdrSkipKind(data), nil, true)
				return err == nil && a.Sender == slow
			}
			stop := v.steady(100*time.Microsecond, v.ids...)
			v.run(200*time.Millisecond, nil)
			stop()
			for _, id := range v.ids {
				c := v.cores[id]
				if n := c.demotionN.Load(); n != 1 {
					t.Fatalf("%s was demoted %d times in 200ms of load, want 1", id, n)
				}
				for _, r := range v.rings[id] {
					if len(r.Members) != len(v.ids) {
						t.Fatalf("%s installed ring %d %v: the membership was to stay unchanged", id, r.RingID, r.Members)
					}
				}
			}
			v.drop = nil
			v.settle(time.Second)
			if !v.run(time.Second, func() bool {
				return !slices.ContainsFunc(v.ids, func(id memnet.NodeID) bool { return v.cores[id].fp.leader == "" })
			}) {
				t.Fatal("the ring was not promoted again once the load stopped")
			}
			v.agree(seq, v.ids...)
		})
	}
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

// TestReorderedBatchDoesNotStallStability: of two batches the sequencer
// orders back to back, the first reaches one follower behind the second.
// The follower naks it and has it at once, the held datagram and the
// retransmission both. Its next watermark report leaves within ackDelay of
// its delivering both — gaps are asked for again every TokenRetransmit,
// the watermark is reported at the ack cadence — so the sequencer's Stable
// reaches the second batch within ackDelay and a few hops, and nothing
// demotes. (The report used to wait for the re-nak: Stable stood still for
// up to TokenRetransmit after the gap had been filled.)
func TestReorderedBatchDoesNotStallStability(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			v, seq, follower := leaderVnet(t, seed)
			sc, fc := v.cores[seq], v.cores[follower]
			var held []byte
			nakd := false
			v.drop = func(to memnet.NodeID, data []byte) bool {
				if to == follower && held == nil && data[0] == kindBatch && bytes.Contains(data, []byte("first")) {
					held = data
					return true
				}
				return false
			}
			v.hear = func(from, to memnet.NodeID, data []byte) {
				if from != follower || to != seq || data[0] != kindAck || nakd {
					return
				}
				if a, err := decodeAck(cdrSkipKind(data), nil, true); err == nil && len(a.Nak) > 0 {
					nakd = true
					v.clk.AfterFunc(0, func() {
						fc.Receive(v.now(), held, 0)
						v.noteChecked(follower)
					})
				}
			}
			v.submit(seq, []byte("first"))
			v.submit(seq, []byte("second"))
			through := sc.fp.seq
			var filled time.Time
			if !v.run(2*sc.cfg.TokenRetransmit, func() bool {
				if filled.IsZero() && fc.deliveredSeq >= through {
					filled = v.now()
				}
				return sc.Stable() >= through
			}) || !nakd {
				t.Fatalf("nak sent %v; Stable %d of %d after %v of virtual time", nakd, sc.Stable(), through, 2*sc.cfg.TokenRetransmit)
			}
			if wait, bound := v.now().Sub(filled), fc.ackDelay()+4*vhop; wait > bound {
				t.Fatalf("Stable reached %d %v after %s had delivered it, want within %v (TokenRetransmit %v)", through, wait, follower, bound, fc.cfg.TokenRetransmit)
			}
			v.run(5*sc.cfg.TokenRetransmit, nil)
			for _, id := range v.ids {
				if n := v.cores[id].demotionN.Load(); n != 0 {
					t.Fatalf("%s was demoted %d times", id, n)
				}
			}
			v.agree(seq, v.ids...)
		})
	}
}
