package totem

import (
	"bytes"
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"eternalgw/internal/memnet"
)

var seeds = flag.Int("seeds", 200, "how many seeds TestSeededRingsAgree runs")

// bothModes runs f as a subtest per ordering mode.
func bothModes(t *testing.T, f func(t *testing.T, mode OrderingMode)) {
	for _, mode := range []OrderingMode{OrderingRing, OrderingLeader} {
		mode := mode
		t.Run(fmt.Sprint("ordering=", mode), func(t *testing.T) { f(t, mode) })
	}
}

// load makes feed submit one 64-byte payload per listed member every
// period of virtual time, for as long as it stays installed.
func (v *vnet) load(period time.Duration, ids ...memnet.NodeID) {
	due := v.now()
	k := 0
	v.feed = func() {
		for ; !due.After(v.now()); due = due.Add(period) {
			for _, id := range ids {
				k++
				v.submit(id, []byte(fmt.Sprintf("%-64s", fmt.Sprint(id, "/", k))))
			}
		}
	}
}

// TestReturnAfterLongAbsenceResumes is ROADMAP item 1's "returns under
// load and never delivers again", at the layer that caused it: a member
// is silent while the other three order and collect up to 200 000
// sequence numbers, and returns. Started from the returner's old
// watermark, the first token has it ask for every number it lacks — one
// request each, on a token that carries them round a ring in which nobody
// holds them — and the ring flaps under its own fail timers. The commit
// keeps the history of the three, and the returner resumes at its
// horizon.
func TestReturnAfterLongAbsenceResumes(t *testing.T) {
	for _, cell := range []struct {
		mode   OrderingMode
		victim int
		gap    uint64
	}{
		{OrderingRing, 3, 200_000}, // the long one; the others keep the test's cost down
		{OrderingRing, 0, 20_000},
		{OrderingLeader, 3, 20_000},
		{OrderingLeader, 0, 20_000},
	} {
		mode, victim, gap := cell.mode, cell.victim, cell.gap
		t.Run(fmt.Sprintf("ordering=%v/v%02d/gap=%d", mode, victim, gap), func(t *testing.T) {
			v := newVnet(t, 4, 1, func(c *Config) { c.Ordering = mode })
			v.settle(time.Second)
			gone := v.ids[victim]
			var live []memnet.NodeID
			for _, id := range v.ids {
				if id != gone {
					live = append(live, id)
				}
			}
			v.net.Crash(gone)
			v.load(10*time.Microsecond, live...)
			first := v.cores[live[0]]
			start := first.gcThrough
			if !v.run(time.Minute, func() bool { return len(first.ring) == 3 && first.gcThrough >= start+gap }) {
				t.Fatalf("%s away: ring %v collected through %d from %d", gone, first.ring, first.gcThrough, start)
			}
			if seq := v.cores[gone].deliveredSeq; seq > start+1000 {
				t.Fatalf("%s was to be far behind, and stands at %d of %d", gone, seq, first.gcThrough)
			}

			v.net.Restart(gone)
			back := v.cores[gone]
			before := len(v.got[gone])
			if !v.run(100*time.Millisecond, func() bool {
				return len(back.ring) == 4 && back.resumedN.Load() == 1 && len(v.got[gone]) > before+100
			}) {
				t.Fatalf("%s back: ring %v, resumed %d, %d deliveries since; survivors' ring %v", gone, back.ring,
					back.resumedN.Load(), len(v.got[gone])-before, first.ring)
			}
			v.feed = nil
			v.settle(time.Second)
			want := make([]uint64, 4)
			want[victim] = 1
			if got := v.resumed(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s back: Resumed = %v, want %v", gone, got, want)
			}
			if v.maxRtr > maxRtr {
				t.Fatalf("a token carried %d retransmission requests", v.maxRtr)
			}
			v.toldRight()
			v.agree(live[0], v.ids...)
		})
	}
}

// TestMergeKeepsPrimaryHistory is the hazard the tempting smaller rule
// falls into. Three members are idle but for two messages, the first of
// which one of them missed: it holds the second buffered, undelivered.
// The fourth, partitioned off alone, stayed busy and is numbered far
// ahead. At the merge the three's history survives: each of them
// delivers both messages once, in one order — nobody jumps to the
// singleton's horizon over its own buffer — and nothing the singleton
// buffered in its dead sequence space is ever retransmitted.
func TestMergeKeepsPrimaryHistory(t *testing.T) {
	bothModes(t, func(t *testing.T, mode OrderingMode) {
		v := newVnet(t, 4, 2, func(c *Config) { c.Ordering = mode })
		v.settle(time.Second)
		three, alone := v.ids[:3], v.ids[3]
		v.net.Partition([]memnet.NodeID{alone})
		v.settle(time.Second, three...)
		v.settle(time.Second, alone)
		for k := 0; k < 5000; k += 50 {
			for i := 0; i < 50; i++ {
				v.submit(alone, []byte(fmt.Sprint("alone/", k+i)))
			}
			v.settle(time.Second, alone)
		}
		if a, b := v.cores[alone].deliveredSeq, v.cores[three[0]].deliveredSeq; a < b+100 {
			t.Fatalf("the singleton was to be numbered far ahead: %d against %d", a, b)
		}

		// The two messages; v02 never sees the first until the merge.
		v.drop = func(to memnet.NodeID, data []byte) bool {
			return to == three[2] && (data[0] == kindRegular || data[0] == kindBatch) && bytes.Contains(data, []byte("first"))
		}
		seen := len(v.got[three[1]])
		v.submit(three[0], []byte("first"))
		v.run(10*time.Millisecond, func() bool { return len(v.got[three[1]]) > seen })
		v.submit(three[0], []byte("second"))
		held := v.cores[three[2]]
		if !v.run(10*time.Millisecond, func() bool { return len(held.buffer) > 0 && held.deliveredSeq < held.highest }) {
			t.Fatalf("%s was to hold a message it cannot deliver: delivered %d, highest %d", three[2], held.deliveredSeq, held.highest)
		}
		// The merge finds it so: the datagram stays lost until all four
		// have installed the merged ring.
		v.net.Heal()
		if !v.run(time.Second, func() bool {
			return !slices.ContainsFunc(v.ids, func(id memnet.NodeID) bool { return len(v.cores[id].ring) != 4 })
		}) {
			t.Fatal("the four did not merge")
		}
		v.drop = nil
		v.settle(time.Second)

		if got, want := v.resumed(), []uint64{0, 0, 0, 1}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Resumed = %v, want %v", got, want)
		}
		if n := v.cores[alone].retransmittedN.Load(); n != 0 {
			t.Fatalf("the singleton retransmitted %d messages of its dead history into the ring", n)
		}
		v.toldRight()
		v.agree(three[0], v.ids...)
		tail := v.got[three[2]]
		if len(tail) < 2 || tail[len(tail)-2].crc != crc32.ChecksumIEEE([]byte("first")) || tail[len(tail)-1].crc != crc32.ChecksumIEEE([]byte("second")) {
			t.Fatalf("%s did not deliver first, second in that order, once: %d deliveries", three[2], len(tail))
		}
	})
}

// TestEvenSplitKeepsTheLowestHalf: neither half of a 2|2 split is a
// majority, so the half holding the ring's lowest id keeps its history
// and the other two resume.
func TestEvenSplitKeepsTheLowestHalf(t *testing.T) {
	bothModes(t, func(t *testing.T, mode OrderingMode) {
		v := newVnet(t, 4, 3, func(c *Config) { c.Ordering = mode })
		v.settle(time.Second)
		low, high := v.ids[:2], v.ids[2:]
		v.net.Partition(high)
		v.settle(time.Second, low...)
		v.settle(time.Second, high...)
		for k := 0; k < 40; k++ {
			v.submit(low[k%2], []byte(fmt.Sprint("low/", k)))
			v.submit(high[k%2], []byte(fmt.Sprint("high/", k)))
			if k%3 == 0 {
				v.submit(high[0], []byte(fmt.Sprint("more/", k)))
			}
		}
		v.settle(time.Second, low...)
		v.settle(time.Second, high...)
		v.net.Heal()
		v.settle(time.Second)
		for _, id := range v.ids {
			v.submit(id, []byte(fmt.Sprint("merged/", id)))
		}
		v.settle(time.Second)
		if got, want := v.resumed(), []uint64{0, 0, 1, 1}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Resumed = %v, want %v", got, want)
		}
		v.toldRight()
		v.agree(low[0], v.ids...)
		if n := len(v.got[low[1]]); n != 40+4 {
			t.Fatalf("%s delivered %d messages, want its half's 40 and the 4 after the merge", low[1], n)
		}
	})
}

// TestLatestMajorityHistoryIsKept is what internal/sim found the first
// time it ordered with this core (make sim, seeds 10 and 223): five split
// 2|3, so the three are a ring of most of the configuration — the side a
// quorum lets execute — and the two are not. One of the three is cut off
// as the rest merge, and the merged ring is two and two. Of equals the
// lowest id's history used to be kept, the two's, and everything the
// three had executed was discarded at the two that continued it. The
// history of the latest majority ring is kept, however small a part of
// the merged ring holds it.
func TestLatestMajorityHistoryIsKept(t *testing.T) {
	bothModes(t, func(t *testing.T, mode OrderingMode) {
		v := newVnet(t, 5, 6, func(c *Config) { c.Ordering = mode })
		v.settle(time.Second)
		two := []memnet.NodeID{v.ids[0], v.ids[3]}
		three := []memnet.NodeID{v.ids[1], v.ids[2], v.ids[4]}
		v.net.Partition(two)
		v.settle(time.Second, two...)
		v.settle(time.Second, three...)
		for k := 0; k < 20; k++ {
			v.submit(two[k%2], []byte(fmt.Sprint("two/", k)))
			v.submit(three[k%3], []byte(fmt.Sprint("three/", k)))
		}
		v.settle(time.Second, two...)
		v.settle(time.Second, three...)

		four := v.ids[:4]
		v.net.Partition([]memnet.NodeID{v.ids[4]})
		v.settle(time.Second, four...)
		if got, want := v.resumed()[:4], []uint64{1, 0, 0, 1}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Resumed = %v, want %v: the three's history is kept", got, want)
		}
		v.toldRight()
		v.agree(three[0], four...)
	})
}

// TestEveryMergeKeepsAHistory: whenever a member of a commit holds a
// history the ring keeps one — the largest component's, of equals the one
// with the lowest member — however small a part of the new ring that
// component is. Left to a majority rule, a ring none of whose components
// is most of it kept nobody's history: every member was told it does not
// continue, and an application that rebuilds from a member that does
// waited for ever. One processor of a four-member configuration started a
// fail timeout ahead of the next is such a ring, with no datagram lost:
// the newcomer's first gather proposes the founding list of four, whose
// commit is given up — two of the four are not running — and the two
// install the ring the next gather finds, the runner answering for the
// ring it ran in and the newcomer for none.
func TestEveryMergeKeepsAHistory(t *testing.T) {
	for _, c := range []struct {
		name    string
		pieces  [][]int  // the components that run apart, by index
		fresh   []int    // who starts at the merge, never in a ring before
		keeps   int      // the piece whose history the merged ring keeps
		resumed []uint64 // by index; who is in no piece and not fresh never starts
	}{
		{"one of four runs and a fresh one joins it", [][]int{{0}}, []int{1}, 0, []uint64{0, 1, 0, 0}},
		{"one runs and a fresh one with a lower id joins it", [][]int{{1}}, []int{0}, 0, []uint64{1, 0, 0, 0}},
		{"one runs, a fresh one joins it, the lowest of the configuration is neither", [][]int{{2}}, []int{3}, 0, []uint64{0, 0, 0, 1}},
		{"four singletons", [][]int{{0}, {1}, {2}, {3}}, nil, 0, []uint64{0, 1, 1, 1}},
		{"the largest piece is no majority and holds no low id", [][]int{{0}, {1}, {2, 3}, {4}}, nil, 2, []uint64{1, 1, 0, 0, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			bothModes(t, func(t *testing.T, mode OrderingMode) {
				v := newVnet(t, len(c.resumed), 5, func(c *Config) { c.Ordering = mode })
				for _, id := range v.ids {
					v.net.Crash(id)
				}
				start := func(k int) memnet.NodeID {
					v.boot(v.ids[k])
					v.net.Restart(v.ids[k])
					return v.ids[k]
				}
				var merged []memnet.NodeID
				pieces := make([][]memnet.NodeID, len(c.pieces))
				for i, p := range c.pieces {
					for _, k := range p {
						pieces[i] = append(pieces[i], v.ids[k])
					}
				}
				v.net.Partition(pieces...)
				for i, p := range c.pieces {
					for _, k := range p {
						merged = append(merged, start(k))
					}
					v.settle(time.Second, pieces[i]...)
					for k := 0; k < 6; k++ {
						v.submit(pieces[i][k%len(p)], []byte(fmt.Sprint("apart/", i, "/", k)))
					}
					v.settle(time.Second, pieces[i]...)
				}
				kept := pieces[c.keeps][0]
				before := len(v.got[kept])

				for _, k := range c.fresh {
					merged = append(merged, start(k))
				}
				slices.Sort(merged)
				v.net.Heal()
				v.settle(time.Second, merged...)
				for _, id := range merged {
					v.submit(id, []byte(fmt.Sprint("merged/", id)))
				}
				v.settle(time.Second, merged...)

				if got := v.resumed(); !reflect.DeepEqual(got, c.resumed) {
					t.Fatalf("Resumed = %v, want %v", got, c.resumed)
				}
				if rings := v.donorless(); len(rings) > 0 {
					t.Fatalf("nobody was told it continues in %v", rings)
				}
				v.toldRight()
				v.agree(kept, merged...)
				if n := len(v.got[kept]); n != before+len(merged) {
					t.Fatalf("%s delivered %d messages, want the %d of its own history and the %d after the merge", kept, n, before, len(merged))
				}
			})
		})
	}
}

// TestNoMergeNoResume: a founding ring keeps everybody's (empty)
// history, and a ring that loses a member for good keeps the rest's.
func TestNoMergeNoResume(t *testing.T) {
	bothModes(t, func(t *testing.T, mode OrderingMode) {
		v := newVnet(t, 4, 4, func(c *Config) { c.Ordering = mode })
		v.settle(time.Second)
		for k := 0; k < 20; k++ {
			v.submit(v.ids[k%4], []byte(fmt.Sprint("founding/", k)))
		}
		v.settle(time.Second)
		v.net.Crash(v.ids[1])
		rest := []memnet.NodeID{v.ids[0], v.ids[2], v.ids[3]}
		for k := 0; k < 20; k++ {
			v.submit(rest[k%3], []byte(fmt.Sprint("three/", k)))
		}
		v.settle(time.Second, rest...)
		v.run(time.Second, nil) // the silent one reconfigures alone, over and over
		if got, want := v.resumed(), make([]uint64, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("Resumed = %v, want %v", got, want)
		}
		v.toldRight()
		v.agree(rest[0], rest...)
		if n := len(v.got[rest[0]]); n != 40 {
			t.Fatalf("%s delivered %d of 40", rest[0], n)
		}
	})
}

// dropTokens makes the network lose every token lose reports true for,
// at the member it would have reached.
func (v *vnet) dropTokens(lose func(to memnet.NodeID, tok token) bool) {
	v.drop = func(to memnet.NodeID, data []byte) bool {
		if data[0] != kindToken {
			return false
		}
		tok, err := decodeToken(cdrSkipKind(data), nil)
		return err == nil && lose(to, tok)
	}
}

// silence makes the network lose, besides what it already loses, every
// heartbeat of ring's sequencer. A leader epoch has retired its token: the
// heartbeats stopping is what sends it gathering, after its members' fail
// timeouts, as a rotating ring is sent by the loss of its token. Ring mode
// sends none.
func (v *vnet) silence(ring uint64) {
	lose := v.drop
	v.drop = func(to memnet.NodeID, data []byte) bool {
		if data[0] == kindPromote {
			p, err := decodePromote(cdrSkipKind(data), nil)
			return err == nil && p.RingID == ring
		}
		return lose != nil && lose(to, data)
	}
}

// TestLostFirstTokenStillResumes: the merged ring's decided commit never
// reaches the returner it is addressed to, the ring wedges there and
// gathers again. Tokens are broadcast and a decided commit is read
// wherever it is seen: the returner saw it pass on its way to the others,
// so it installed the ring, resumed, and reported it with that verdict —
// and writes into the next commit where it stands in the kept history.
// Its old watermark pins nothing, and nothing it buffered alone enters
// the ring.
func TestLostFirstTokenStillResumes(t *testing.T) {
	bothModes(t, func(t *testing.T, mode OrderingMode) {
		v := newVnet(t, 4, 5, func(c *Config) { c.Ordering = mode })
		v.settle(time.Second)
		three, alone := v.ids[:3], v.ids[3]
		v.net.Partition([]memnet.NodeID{alone})
		v.settle(time.Second, three...)
		v.settle(time.Second, alone)
		for k := 0; k < 500; k += 50 {
			for i := 0; i < 50; i++ {
				v.submit(alone, []byte(fmt.Sprint("alone/", k+i)))
			}
			v.settle(time.Second, alone)
		}
		v.submit(three[1], []byte("three"))
		v.settle(time.Second, three...)

		back := v.cores[alone]
		merged := uint64(0) // the first ring of four the returner installs
		v.dropTokens(func(to memnet.NodeID, tok token) bool {
			if merged == 0 && len(back.ring) == 4 {
				merged = back.ringID
			}
			return to == alone && tok.Succ == alone && tok.RingID == merged
		})
		v.net.Heal()
		if !v.run(time.Second, func() bool { return merged != 0 && back.ringID > merged }) {
			t.Fatalf("the ring did not wedge at %s and gather again: ring %d %v after %d", alone, back.ringID, back.ring, merged)
		}
		if !slices.ContainsFunc(v.told, func(w verdict) bool { return w.id == alone && w.c.RingID == merged && !w.c.Continues }) {
			t.Fatalf("%s was to report ring %d, whose decided commit it saw in passing, as one it does not continue", alone, merged)
		}
		v.settle(time.Second)
		if got, want := v.resumed(), []uint64{0, 0, 0, 1}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Resumed = %v, want %v", got, want)
		}
		if n := back.retransmittedN.Load(); n != 0 {
			t.Fatalf("the returner retransmitted %d messages of its dead history into the ring", n)
		}
		for _, id := range v.ids {
			v.submit(id, []byte(fmt.Sprint("merged/", id)))
		}
		v.settle(time.Second)
		v.toldRight()
		v.agree(three[0], v.ids...)
		if n := len(v.got[three[0]]); n != 1+4 {
			t.Fatalf("%s delivered %d messages, want the three's 1 and the 4 after the merge", three[0], n)
		}
	})
}

// TestRegatherBeforeFirstTokenKeepsMembers: two of four never see a token
// of the ring a gather proposes. While each member installed that ring on
// its own, the two were in a ring they had heard nothing of, and had to
// derive its verdict from the joins or be counted apart at the next
// gather and rebuilt though they lacked nothing. A commit that does not
// get round is installed by nobody: no member reports the ring, the commit
// deadline sends all four gathering again from the ring they were in, the
// next gather finds one component of four, and nobody resumes.
func TestRegatherBeforeFirstTokenKeepsMembers(t *testing.T) {
	bothModes(t, func(t *testing.T, mode OrderingMode) {
		v := newVnet(t, 4, 6, func(c *Config) { c.Ordering = mode })
		v.settle(time.Second)
		for k := 0; k < 8; k++ {
			v.submit(v.ids[k%4], []byte(fmt.Sprint("founding/", k)))
		}
		v.settle(time.Second)
		// The founding ring loses its token and gathers — a leader epoch,
		// whose token is retired, its sequencer's heartbeats — and the ring
		// proposed after it loses every token on its way to the last two.
		founding, late := v.cores[v.ids[0]].ringID, v.ids[2:]
		v.dropTokens(func(to memnet.NodeID, tok token) bool {
			return tok.RingID == founding || tok.RingID == founding+1 && slices.Contains(late, to)
		})
		v.silence(founding)
		for k := 0; k < 8; k++ {
			v.submit(v.ids[k%2], []byte(fmt.Sprint("second/", k)))
		}
		behind := v.cores[late[0]]
		if !v.run(time.Second, func() bool { return behind.ringID > founding+1 }) {
			t.Fatalf("the second commit was to be given up and a third to get round: %s in ring %d", late[0], behind.ringID)
		}
		v.settle(time.Second)
		if slices.ContainsFunc(v.told, func(w verdict) bool { return w.c.RingID == founding+1 }) {
			t.Fatalf("ring %d was reported, and its commit never got round: %+v", founding+1, v.told)
		}
		for _, id := range v.ids {
			if c := v.cores[id]; c.gatherN.Load() != c.reconfigN.Load()+1 {
				t.Fatalf("%s began %d gathers and installed %d rings, want one gather abandoned at the commit", id, c.gatherN.Load(), c.reconfigN.Load())
			}
		}
		if got, want := v.resumed(), make([]uint64, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("Resumed = %v, want %v", got, want)
		}
		v.toldRight()
		v.agree(v.ids[0], v.ids...)
		if n := len(v.got[late[1]]); n != 16 {
			t.Fatalf("%s delivered %d of 16", late[1], n)
		}
	})
}

// tokenCore is a core driven by hand that keeps the tokens it sends.
func tokenCore(id memnet.NodeID, now time.Time, sent *[]token, emit func(Event)) *Core {
	n := NewCore(Config{ID: id}, now, func(b []byte) {
		if tok, err := decodeToken(cdrSkipKind(b), nil); b[0] == kindToken && err == nil {
			*sent = append(*sent, tok)
		}
	}, emit)
	n.cfg.applyDefaults()
	return n
}

// TestSkippedRequestIsDeclaredAgain: a skip is declared on a token, and
// a member that left the ring before that token reached it asks again in
// the next ring, whose fresh token carries no skip list. Whoever has the
// number skipped says so again; dropping the request as resolved (the
// parent's rule) left the requester asking for ever.
func TestSkippedRequestIsDeclaredAgain(t *testing.T) {
	now := time.Unix(1000, 0)
	var sent []token
	n := tokenCore("v01", now, &sent, func(Event) {})
	n.ring, n.ringID = []memnet.NodeID{"v00", "v01", "v02"}, 5
	n.ids = newIDTable(n.ring)
	n.deliveredSeq, n.highest, n.gcThrough = 20, 20, 11
	n.skipped[12] = true
	n.Receive(now, encodeToken(token{RingID: 5, TokenID: 7, Seq: 20, Aru: 11, Stable: 11, Succ: "v01",
		Rtr: []rtrEntry{{Seq: 12}}}, nil), 0)
	if len(sent) != 1 || !slices.Equal(sent[0].Skip, []uint64{12}) || len(sent[0].Rtr) != 0 {
		t.Fatalf("forwarded %+v, want one token that skips 12 and requests nothing", sent)
	}
}

// TestEveryDatagramPassesTheGate pins the one answer to "is this
// datagram from my ring, a newer one, or a foreign one to merge with?"
// for every kind a handler takes. v00 is in ring 5 of v00..v02; each
// datagram comes from that ring, a newer or an older one, speaks for a
// member or a stranger, and arrives while v00 is gathering or not.
func TestEveryDatagramPassesTheGate(t *testing.T) {
	type outcome string
	const (
		processed outcome = "processed"
		ignored   outcome = "ignored"
		gather    outcome = "gather"
	)
	// The semantics, written down once. Rejoining a newer ring and
	// merging with a foreign one are both a gather; while gathering,
	// only ordered traffic of the current ring is still taken in.
	want := func(ring string, member, gathering, ordered bool) outcome {
		switch {
		case ring == "same" && member && (ordered || !gathering):
			return processed
		case gathering:
			return ignored
		case ring == "newer", !member:
			return gather
		}
		return ignored // an older ring's traffic from a member: stale
	}
	rings := map[string]uint64{"same": 5, "newer": 6, "older": 4}

	// Each kind: the epoch v00 must be in for the handler to care, the
	// datagram as (ring, from) would send it, and what processing it
	// leaves behind.
	kinds := []struct {
		name    string
		ordered bool
		leader  memnet.NodeID // v00's epoch: "" none, else its sequencer
		frame   func(ring uint64, from memnet.NodeID) []byte
		took    func(n *Core) bool
	}{
		{"regular", true, "", func(r uint64, from memnet.NodeID) []byte {
			return encodeRegular(regularMsg{RingID: r, Seq: 9, Sender: from, Payload: []byte("p")}, nil)
		}, func(n *Core) bool { return len(n.buffer) == 1 }},
		{"packed", true, "", func(r uint64, from memnet.NodeID) []byte {
			return encodeRegular(regularMsg{RingID: r, Seq: 9, Sender: from, Parts: [][]byte{[]byte("a"), []byte("b")}}, nil)
		}, func(n *Core) bool { return len(n.buffer) == 1 }},
		{"token", false, "", func(r uint64, from memnet.NodeID) []byte {
			return encodeToken(token{RingID: r, TokenID: 7, Seq: 8, Aru: 8, Stable: 8, Succ: from}, nil)
		}, func(n *Core) bool { return n.lastTokenID == 7 }},
		{"forward", false, "v01", func(r uint64, from memnet.NodeID) []byte {
			return encodeForward(forwardMsg{RingID: r, Sender: from, FwdSeq: 1, Payload: []byte("p")}, nil)
		}, func(n *Core) bool { return len(n.fp.held) == 1 }},
		{"batch", true, "v01", func(r uint64, from memnet.NodeID) []byte {
			return encodeBatch(batchMsg{RingID: r, Seq: 9, Leader: from, Origin: from, OriginFwd: 1, Payload: []byte("p")}, nil, nil)
		}, func(n *Core) bool { return len(n.buffer) == 1 }},
		{"batch by reference", false, "v01", func(r uint64, from memnet.NodeID) []byte {
			return encodeBatch(batchMsg{RingID: r, Seq: 9, Leader: from, Origin: "v02", OriginFwd: 1, Ref: true}, nil, nil)
		}, func(n *Core) bool { return len(n.fp.parked) == 1 }},
		{"ack", false, "v00", func(r uint64, from memnet.NodeID) []byte {
			return encodeAck(ackMsg{RingID: r, Sender: from, Aru: 8}, nil)
		}, func(n *Core) bool { return n.fp.memberAru["v01"] == 8 }},
		{"promote", false, "", func(r uint64, from memnet.NodeID) []byte {
			return encodePromote(promoteMsg{RingID: r, Leader: from, StartSeq: 8, Stable: 8}, nil)
		}, func(n *Core) bool { return n.fp.leader == "v01" }},
	}
	for _, k := range kinds {
		for ring, ringID := range rings {
			for _, member := range []bool{true, false} {
				for _, gathering := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s ring/member=%v/gathering=%v", k.name, ring, member, gathering)
					now := time.Unix(1000, 0)
					joins := 0
					n := NewCore(Config{ID: "v00", Ordering: OrderingLeader}, now, func(b []byte) {
						if b[0] == kindJoin {
							joins++
						}
					}, func(Event) {})
					n.cfg.applyDefaults()
					n.now = now
					n.ring, n.ringID = []memnet.NodeID{"v00", "v01", "v02"}, 5
					n.ids = newIDTable(n.ring)
					n.deliveredSeq, n.highest, n.lastTokenID = 8, 8, 6
					n.arm(dlFail, time.Hour)
					switch k.leader {
					case "v00":
						n.promote(token{RingID: 5, Seq: 8, Stable: 8})
						n.fp.memberAru["v01"] = 7
					case "v01":
						n.adoptLeader("v01", 8, 8)
					}
					if gathering {
						// A gather leaves any epoch; what is asked is whether
						// the old ring's traffic is still taken in.
						n.startGather()
					}
					joins = 0
					from := memnet.NodeID("v01")
					if !member {
						from = "v09"
					}
					n.Receive(now, k.frame(ringID, from), 0)
					got := ignored
					switch {
					case k.took(n):
						got = processed
					case joins > 0:
						got = gather
					}
					if w := want(ring, member, gathering, k.ordered); got != w {
						t.Errorf("%s: %s, want %s", name, got, w)
					}
				}
			}
		}
	}

	// A member that is not the sequencer decodes an ack's ring id alone,
	// so the id is all it can judge: a newer ring is still a reason to
	// rejoin, a stranger's ack in this ring or an older one is not seen
	// for what it is.
	for ring, ringID := range rings {
		joins := 0
		n := NewCore(Config{ID: "v00"}, time.Unix(1000, 0), func(b []byte) { joins++ }, func(Event) {})
		n.cfg.applyDefaults()
		n.ring, n.ringID = []memnet.NodeID{"v00", "v01", "v02"}, 5
		n.Receive(time.Unix(1000, 0), encodeAck(ackMsg{RingID: ringID, Sender: "v09", Aru: 8}, nil), 0)
		if gathered := joins > 0; gathered != (ring == "newer") {
			t.Errorf("follower's view of an ack from a %s ring: gathered %v", ring, gathered)
		}
	}
}

// TestTokenToMySuccessorIsMine: only a member's predecessor addresses it,
// so a token of its ring that a member sees addressed to its successor is
// its own. While a gather ended separately at each member, two of them
// could install different lists under one id, and then it was not: two
// rotations ran under one id, each side's tokens passed for the other's
// liveness, and a member both skipped waited for ever. A commit is
// decided once, and a member writes into one per id: on the sweep that
// found the wedge, no member ever hears a token of its ring for its
// successor from anybody else.
func TestTokenToMySuccessorIsMine(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		v := newVnet(t, 4, seed, func(c *Config) { c.Ordering = OrderingMode(seed % 2) })
		v.hear = func(from, to memnet.NodeID, data []byte) {
			c := v.cores[to]
			if data[0] != kindToken || c.gathering || from == to {
				return
			}
			tok, err := decodeToken(cdrSkipKind(data), nil)
			if err != nil || tok.RingID != c.ringID {
				return
			}
			if succ := c.ring[(slices.Index(c.ring, to)+1)%len(c.ring)]; tok.Succ == succ {
				t.Fatalf("seed %d: %s, in ring %d %v, heard %s address its successor %s", seed, to, c.ringID, c.ring, from, succ)
			}
		}
		v.settle(time.Second)
		v.lossyReturns()
	}
}

// TestTwoListsUnderOneIdAreTwoRings: two creators can propose different
// lists under one ring id — each the lowest of the candidates it heard —
// and a member of both writes into the first that reaches it and into no
// other under that id. Neither commit is decided without every member's
// entry, so the lists of two that are share no member: nobody reports a
// ring to its application whose other members report another of that id.
// Rings that share no member do collide in their ids, as across a
// partition, so a ring is named by its id and its lowest member, and at
// the next gather two such are two components.
func TestTwoListsUnderOneIdAreTwoRings(t *testing.T) {
	first, second := []memnet.NodeID{"v00", "v02"}, []memnet.NodeID{"v01", "v02"}
	now := time.Unix(1000, 0)
	var sent []token
	var told []ConfigChange
	n := tokenCore("v02", now, &sent, func(ev Event) { told = append(told, ev.Config) })
	n.Tick(now, 0) // the fail timer a new core starts with: gather
	commit := func(list []memnet.NodeID, decided bool) []byte {
		tok := token{RingID: 8, TokenID: 2, Succ: "v02", Members: list, Entries: []commitEntry{{Filled: true}, {Filled: decided}}, Decided: decided}
		if decided {
			tok.TokenID = 4
		}
		return encodeToken(tok, nil)
	}
	n.Receive(now, commit(first, false), 0)
	if len(sent) != 1 || !slices.Equal(sent[0].Members, first) || sent[0].Succ != "v00" || !sent[0].Entries[1].Filled {
		t.Fatalf("sent %+v, want the first commit forwarded to v00 with v02's entry in it", sent)
	}
	n.Receive(now, commit(second, false), 0)
	n.Receive(now, commit(second, true), 0)
	if len(sent) != 1 || len(told) != 0 || !n.gathering {
		t.Fatalf("sent %+v and reported %+v: a second commit under the id was to be left alone", sent[1:], told)
	}
	n.Receive(now, commit(first, true), 0)
	if len(told) != 1 || told[0].RingID != 8 || !slices.Equal(told[0].Members, first) || !told[0].Continues {
		t.Fatalf("reported %+v, want ring 8 %v, which a processor never in a ring continues", told, first)
	}
	// A resend of the second reaches it in the ring: the gate, going by id
	// and addressee, would take it for a token of the ring's, and no token
	// id may make it one.
	sends, last := len(sent), n.lastTokenID
	n.Receive(now, encodeToken(token{RingID: 8, TokenID: last + 5, Succ: "v02", Members: second, Entries: []commitEntry{{Filled: true}, {}}}, nil), 0)
	if len(sent) != sends || n.lastTokenID != last {
		t.Fatalf("sent %+v, token id %d: the second commit was taken for ring 8 %v's token", sent[sends:], n.lastTokenID, first)
	}

	a, b := ringRef{ID: 8, Low: "v00"}, ringRef{ID: 8, Low: "v01"}
	if n.last != a || a == b {
		t.Fatalf("installed %v, want %v, and %v another ring", n.last, a, b)
	}
	for _, c := range []struct {
		holds []ringRef
		kept  ringRef
	}{
		{[]ringRef{a, b, a, b}, a}, // of equals, the one with the lowest member
		{[]ringRef{a, b, {}, b}, b},
		{[]ringRef{{}, {}, b}, b}, // however small a part of the ring it is
		{[]ringRef{{}, {}}, ringRef{}},
	} {
		var tok token
		for _, h := range c.holds {
			tok.Entries = append(tok.Entries, commitEntry{Filled: true, Last: h})
		}
		if got := tok.kept(); got != c.kept {
			t.Errorf("members holding %v keep %v, want %v", c.holds, got, c.kept)
		}
	}
}

// TestUnheardJoinIsNotCollectedPast: a member lags — it lost what the
// others ordered — the ring gathers again, and no join of the laggard
// reaches the creator, which knows it through its neighbour's candidate
// set. What the ring may collect is what every member has. The laggard
// writes its own watermark into the commit, so the ring's Aru and Stable
// start no higher than it stands, and what it lacks is still there to be
// sent again. (Started from the joins the creator heard, the horizon
// stood above the laggard, the others collected up to it, and it asked
// for collected messages for ever; started from zero for fear of that,
// nothing was collected before a full rotation.)
func TestUnheardJoinIsNotCollectedPast(t *testing.T) {
	v := newVnet(t, 3, 8, nil)
	v.settle(time.Second)
	creator, laggard := v.ids[0], v.ids[1]
	old := v.cores[creator].ringID
	wedge := false
	v.drop = func(to memnet.NodeID, data []byte) bool {
		switch data[0] {
		case kindRegular, kindPacked:
			return to == laggard // it lags, and stays behind until the new ring stands
		case kindToken:
			tok, err := decodeToken(cdrSkipKind(data), nil)
			return wedge && err == nil && tok.RingID == old // the ring loses its token and gathers
		case kindJoin:
			j, err := decodeJoin(cdrSkipKind(data), nil)
			return to == creator && err == nil && j.Sender == laggard
		}
		return false
	}
	for k := 0; k < 30; k++ {
		v.submit(v.ids[k%3], []byte(fmt.Sprint("ordered/", k)))
	}
	ahead, behind := v.cores[creator], v.cores[laggard]
	if !v.run(time.Second, func() bool { return len(v.got[creator]) == 30 && len(v.got[v.ids[2]]) == 30 }) || len(v.got[laggard]) > 0 {
		t.Fatalf("%s was to lag: delivered %d against %d", laggard, len(v.got[laggard]), len(v.got[creator]))
	}
	wedge = true
	if !v.run(time.Second, func() bool {
		return !slices.ContainsFunc(v.ids, func(id memnet.NodeID) bool { return v.cores[id].ringID == old || v.cores[id].gathering })
	}) {
		t.Fatal("the ring did not gather again")
	}
	if len(ahead.ring) != 3 || len(behind.ring) != 3 {
		t.Fatalf("the new ring was to hold all three: %v at %s, %v at %s", ahead.ring, creator, behind.ring, laggard)
	}
	v.drop = nil
	v.settle(time.Second)
	if got, want := v.resumed(), make([]uint64, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("Resumed = %v, want %v", got, want)
	}
	v.toldRight()
	v.agree(creator, v.ids...)
	if n := len(v.got[laggard]); n != 30 {
		t.Fatalf("%s delivered %d of 30", laggard, n)
	}
}

// TestHeavyLossReturnsSettle is the sweep replication's
// TestLossyReturnsConverge stands on, in virtual time: per seed four
// rounds of one member silent and back with 40 % loss for 400 ms around
// its return, and after each the ring must come to rest with everyone in
// it. Joins and commits are lost at every stage of every gather here, and
// gathers are given up at the commit far more often than under the few
// percent of loss TestSeededRingsAgree applies.
func TestHeavyLossReturnsSettle(t *testing.T) {
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			v := newVnet(t, 4, seed, func(c *Config) { c.Ordering = OrderingMode(seed % 2) })
			v.settle(time.Second)
			v.lossyReturns()
			v.toldRight()
		})
	}
}

// lossyReturns is four rounds of the first member silent and back with
// 40 % loss for 400 ms around its return, the ring at rest with everyone
// in it after each.
func (v *vnet) lossyReturns() {
	v.t.Helper()
	for round := 0; round < 4; round++ {
		v.net.Crash(v.ids[0])
		v.settle(time.Second, v.ids[1:]...)
		v.settle(time.Second, v.ids[0])
		v.net.SetLoss(0.4)
		v.run(200*time.Millisecond, nil)
		v.net.Restart(v.ids[0])
		v.run(200*time.Millisecond, nil)
		v.net.SetLoss(0)
		v.settle(time.Second)
	}
}

// TestSeededRingsAgree runs the core through seeded schedules of loss,
// duplication, reorder and one silence-and-return, in both ordering
// modes, and checks what must hold on every one of them: nobody
// delivered twice, every member that never left the surviving history
// delivered one identical stream, a sequence number of that history
// means one message everywhere, the ring came to rest with everyone in
// it, and from there on everyone delivered the same stream
// (agreeWhereTogether), and every ring a member reported came with the
// verdict the harness's own books give (toldRight). No member is excused
// from any of it on any schedule, and nothing is submitted behind the
// lossy phase to flush it out: a change that lets a member install what
// no commit decided, or leaves a follower short of an idle epoch's last
// batch, shows here before it shows anywhere else.
func TestSeededRingsAgree(t *testing.T) {
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			loss, dup := rng.Float64()*0.05, rng.Float64()*0.05
			delay := 2*vhop + time.Duration(rng.Int63n(int64(200*time.Microsecond)))
			v := newVnet(t, 3+int(seed/2%3), seed, func(c *Config) { c.Ordering = OrderingMode(seed % 2) },
				memnet.WithDuplication(dup), memnet.WithMaxDelay(delay))
			v.settle(time.Second)
			gone := v.ids[rng.Intn(len(v.ids))]
			leaves := time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
			returns := leaves + time.Duration(rng.Int63n(int64(300*time.Millisecond)))
			t.Logf("%d members, %s silent %v..%v, loss %.3f, duplication %.3f, delay < %v", len(v.ids), gone, leaves, returns, loss, dup, delay)
			v.net.SetLoss(loss)
			v.clk.AfterFunc(leaves, func() { v.net.Crash(gone) })
			v.clk.AfterFunc(returns, func() { v.net.Restart(gone) })
			start, sent := v.now(), 0
			v.feed = func() {
				for since := v.now().Sub(start); time.Duration(sent)*500*time.Microsecond < since; sent++ {
					id := v.ids[rng.Intn(len(v.ids))]
					v.submit(id, []byte(fmt.Sprint(seed, "/", id, "/", sent)))
				}
			}
			v.run(returns+50*time.Millisecond, nil)
			v.feed = nil
			v.net.SetLoss(0)
			v.settle(2 * time.Second)
			for _, id := range v.ids {
				v.submit(id, []byte(fmt.Sprint(seed, "/", id, "/after")))
			}
			v.settle(time.Second)
			v.toldRight()
			v.agreeWhereTogether()
		})
	}
}

// TestDepartedSendersMessageIsRecovered: a member broadcasts, the datagram
// reaches one of the others and not the rest — a crash in the middle of a
// broadcast does that — and the member is gone. The ring that follows owes
// the message to everybody: whoever holds it retransmits it, under the new
// ring's id and in its sender's name, and its sender is no member of that
// ring. Taken for a foreign ring's traffic under this ring's id it sent
// every member that saw it into a gather, the next ring retransmitted it
// again, and so on for ever (ftmgmt's TestRemoveHostRepairsImmediately
// timed out on it once in a few hundred runs: 659 rings in 15 s).
func TestDepartedSendersMessageIsRecovered(t *testing.T) {
	bothModes(t, func(t *testing.T, mode OrderingMode) {
		v := newVnet(t, 4, 7, func(c *Config) { c.Ordering = mode })
		v.settle(time.Second)
		gone, holder, rest := v.ids[0], v.ids[1], v.ids[2:]
		founding := v.cores[gone].ringID
		v.drop = func(to memnet.NodeID, data []byte) bool {
			// The original alone: a batch of the founding epoch, or a regular
			// message under the founding ring's id.
			if !slices.Contains(rest, to) || !bytes.Contains(data, []byte("last words")) {
				return false
			}
			m, err := decodeRegular(cdrSkipKind(data), nil)
			return data[0] == kindBatch || data[0] == kindRegular && err == nil && m.RingID == founding
		}
		v.submit(gone, []byte("last words"))
		seen := len(v.got[holder])
		if !v.run(10*time.Millisecond, func() bool { return len(v.got[holder]) > seen }) {
			t.Fatalf("%s was to deliver the message before %s went", holder, gone)
		}
		v.net.Crash(gone)
		v.settle(time.Second, v.ids[1:]...)
		for _, id := range v.ids[1:] {
			v.submit(id, []byte(fmt.Sprint("after/", id)))
		}
		v.settle(time.Second, v.ids[1:]...)
		v.toldRight()
		v.agree(holder, rest...)
		if n := v.cores[holder].reconfigN.Load(); n > 3 {
			t.Fatalf("%s installed %d rings", holder, n)
		}
		tail := v.got[rest[1]]
		if len(tail) != 4 || tail[0].crc != crc32.ChecksumIEEE([]byte("last words")) || tail[0].sender != gone {
			t.Fatalf("%s delivered %d messages, want %s's last one and the three after", rest[1], len(tail), gone)
		}
	})
}

// The three schedules a gather that ended separately at each member let
// through, each aimed with the receiver-side drop hook. What they have in
// common: the ring's creator decided from the joins it happened to hear.
// A commit is decided from what every member wrote into it itself.

// TestUnheardLargerComponentIsKept: two members merge with three, and no
// join of the three reaches the creator, which knows of them through its
// neighbour's candidate set alone. The three are the larger component
// and their history is kept all the same.
func TestUnheardLargerComponentIsKept(t *testing.T) {
	bothModes(t, func(t *testing.T, mode OrderingMode) {
		v := newVnet(t, 5, 9, func(c *Config) { c.Ordering = mode })
		v.settle(time.Second)
		small, large := v.ids[:2], v.ids[2:]
		v.net.Partition(large)
		v.settle(time.Second, small...)
		v.settle(time.Second, large...)
		for k := 0; k < 12; k++ {
			v.submit(small[k%2], []byte(fmt.Sprint("small/", k)))
			v.submit(large[k%3], []byte(fmt.Sprint("large/", k)))
		}
		v.settle(time.Second, small...)
		v.settle(time.Second, large...)
		before := len(v.got[large[0]])
		v.drop = func(to memnet.NodeID, data []byte) bool {
			j, err := decodeJoin(cdrSkipKind(data), nil)
			return data[0] == kindJoin && err == nil && to == small[0] && slices.Contains(large, j.Sender)
		}
		v.net.Heal()
		v.settle(time.Second)
		v.drop = nil
		for _, id := range v.ids {
			v.submit(id, []byte(fmt.Sprint("merged/", id)))
		}
		v.settle(time.Second)
		if got, want := v.resumed(), []uint64{1, 1, 0, 0, 0}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Resumed = %v, want %v: the three's history was to be kept", got, want)
		}
		v.toldRight()
		v.agree(large[0], v.ids...)
		if n := len(v.got[large[0]]); n != before+5 {
			t.Fatalf("%s delivered %d messages, want the %d of its own history and the 5 after the merge", large[0], n, before)
		}
	})
}

// TestEarlyGatherDeadlineInstallsNothingAlone: three members gather after
// the fourth went silent, and one's gather deadline fires a GatherTimeout
// ahead of the others', whose candidate sets a newcomer then reopens. The
// early one waits for a commit like everybody else: every ring it
// installs the others install, and it does not resume.
func TestEarlyGatherDeadlineInstallsNothingAlone(t *testing.T) {
	bothModes(t, func(t *testing.T, mode OrderingMode) {
		v := newVnet(t, 4, 10, func(c *Config) { c.Ordering = mode })
		v.settle(time.Second)
		for k := 0; k < 8; k++ {
			v.submit(v.ids[k%4], []byte(fmt.Sprint("founding/", k)))
		}
		v.settle(time.Second)
		three, gone, early := v.ids[:3], v.ids[3], v.cores[v.ids[1]]
		v.net.Crash(gone)
		if !v.run(time.Second, func() bool {
			return !slices.ContainsFunc(three, func(id memnet.NodeID) bool {
				c := v.cores[id]
				return !c.gathering || len(c.alive) != 3 || c.proposed != early.proposed
			})
		}) {
			t.Fatal("the three did not gather")
		}
		old := early.ringID
		early.deadlines[dlGather] = v.now()
		v.boot(gone) // back as a processor started now, while the other two still gather
		v.net.Restart(gone)
		v.settle(time.Second)
		for _, id := range v.ids {
			v.submit(id, []byte(fmt.Sprint("merged/", id)))
		}
		v.settle(time.Second)
		for _, c := range v.rings[v.ids[1]] {
			for _, id := range c.Members {
				if c.RingID > old && !slices.ContainsFunc(v.rings[id], func(o ConfigChange) bool { return ringKey(o) == ringKey(c) }) {
					t.Fatalf("%s installed ring %d %v, and %s did not", v.ids[1], c.RingID, c.Members, id)
				}
			}
		}
		if got, want := v.resumed(), []uint64{0, 0, 0, 1}; !reflect.DeepEqual(got, want) {
			t.Fatalf("Resumed = %v, want %v", got, want)
		}
		v.toldRight()
		v.agree(v.ids[0], v.ids...)
	})
}

// TestUnheardHighestSeqIsNotAssignedAgain: a member broadcasts on its
// token visit, nobody receives it, the token is lost with it, and no join
// of that member reaches the next ring's creator. It holds — and has
// delivered — sequence numbers the creator has not heard of, and the ring
// must not give them to other messages.
func TestUnheardHighestSeqIsNotAssignedAgain(t *testing.T) {
	v := newVnet(t, 3, 11, nil)
	v.settle(time.Second)
	for k := 0; k < 6; k++ {
		v.submit(v.ids[k%3], []byte(fmt.Sprint("founding/", k)))
	}
	v.settle(time.Second)
	creator, ahead := v.ids[0], v.ids[2]
	old, seq := v.cores[creator].ringID, v.cores[creator].highest
	v.drop = func(to memnet.NodeID, data []byte) bool {
		switch data[0] {
		case kindRegular, kindPacked:
			m, err := decodeRegular(cdrSkipKind(data), nil)
			if data[0] == kindPacked {
				m, err = decodePacked(cdrSkipKind(data), nil, nil)
			}
			return err == nil && m.RingID == old && m.Seq > seq && to != ahead
		case kindToken:
			tok, err := decodeToken(cdrSkipKind(data), nil)
			return err == nil && tok.RingID == old && tok.Seq > seq
		case kindJoin:
			j, err := decodeJoin(cdrSkipKind(data), nil)
			return err == nil && to == creator && j.Sender == ahead
		}
		return false
	}
	for k := 0; k < 5; k++ {
		v.submit(ahead, []byte(fmt.Sprint("unheard/", k)))
	}
	if !v.run(time.Second, func() bool {
		return !slices.ContainsFunc(v.ids, func(id memnet.NodeID) bool { return v.cores[id].ringID == old || v.cores[id].gathering })
	}) {
		t.Fatal("the ring did not gather again")
	}
	if c := v.cores[creator]; len(c.ring) != 3 {
		t.Fatalf("the new ring was to hold all three: %v at %s", c.ring, creator)
	}
	v.drop = nil
	for _, id := range v.ids {
		v.submit(id, []byte(fmt.Sprint("after/", id)))
	}
	v.settle(time.Second)
	if got, want := v.resumed(), make([]uint64, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("Resumed = %v, want %v", got, want)
	}
	v.toldRight()
	v.agree(creator, v.ids...)
	if n := len(v.got[creator]); n != 6+5+3 {
		t.Fatalf("%s delivered %d messages, want 14", creator, n)
	}
}

// TestFoundingGatherOutlivesAnAbsentMember: a processor's first gather
// proposes the whole configuration, and a commit for that never gets
// round while a configured processor is not running. Its next gather
// starts from the joins it hears: one runner of four stands alone after
// one commit given up, and a second processor started later is in a ring
// with it within FailTimeout + 2×GatherTimeout of its start.
func TestFoundingGatherOutlivesAnAbsentMember(t *testing.T) {
	v := newVnet(t, 4, 12, nil)
	for _, id := range v.ids {
		v.net.Crash(id)
	}
	start := func(id memnet.NodeID) time.Time {
		v.boot(id)
		v.net.Restart(id)
		return v.now()
	}
	cfg := v.cores[v.ids[0]].cfg
	first, second := v.ids[0], v.ids[1]
	began := start(first)
	alone := v.cores[first]
	if !v.run(time.Second, func() bool { return !alone.gathering && len(alone.ring) == 1 }) {
		t.Fatalf("%s, the one runner of four, installed no ring of its own: gathering %v, ring %v", first, alone.gathering, alone.ring)
	}
	if took, limit := v.now().Sub(began), cfg.FailTimeout+2*cfg.GatherTimeout; took > limit || alone.gatherN.Load() != 2 {
		t.Fatalf("%s stood alone after %v and %d gathers, want within %v and one commit given up", first, took, alone.gatherN.Load(), limit)
	}
	began = start(second)
	v.settle(time.Second, first, second)
	if took, limit := v.now().Sub(began), cfg.FailTimeout+2*cfg.GatherTimeout; took > limit {
		t.Fatalf("%s was in a ring with %s %v after its start, want within %v", second, first, took, limit)
	}
	if got, want := v.resumed(), []uint64{0, 1, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Resumed = %v, want %v", got, want)
	}
	v.toldRight()
}

// gatherFallback is the GatherTimeout of the full-house tests: long enough
// that a ring formed within joinRound was not formed by the fallback.
const gatherFallback = 10 * time.Second

// joinRound bounds, in virtual time, a gather that ends on full-house
// consensus: its joins and their answers, then the commit twice round.
const joinRound = 5 * time.Millisecond

// installed reports whether every listed core stands in one ring of
// exactly those members.
func (v *vnet) installed(ids ...memnet.NodeID) bool {
	first := v.cores[ids[0]]
	return !slices.ContainsFunc(ids, func(id memnet.NodeID) bool {
		c := v.cores[id]
		return c.gathering || c.ringID != first.ringID || !slices.Equal(c.ring, ids)
	})
}

// TestFullHouseGatherEndsOnConsensus: four processors start a millisecond
// apart, the highest id first, so every join sent before the last start is
// lost at those not running yet, and the one that sends the commit hears
// none of them. A candidate set that holds every configured processor
// cannot grow, so the gather ends once each of them has sent a join for
// it — each answering the first it hears from every other — and not a
// GatherTimeout later: the ring stands within joinRound of the last start,
// with no commit given up on the way. With one configured processor never
// started the fallback decides: the other three install nothing before
// two GatherTimeouts, the founding gather's — every configured processor
// is in its set, and one never answers — and the next one's, whose set of
// three is no full house, and then a ring of three.
func TestFullHouseGatherEndsOnConsensus(t *testing.T) {
	for _, started := range []int{4, 3} {
		t.Run(fmt.Sprintf("started=%d", started), func(t *testing.T) {
			bothModes(t, func(t *testing.T, mode OrderingMode) {
				v := newVnet(t, 4, 15, func(c *Config) { c.Ordering, c.GatherTimeout = mode, gatherFallback })
				for _, id := range v.ids {
					v.net.Crash(id)
				}
				first := v.now()
				up := v.ids[:started]
				for i := range up {
					if i > 0 {
						v.run(time.Millisecond, nil)
					}
					id := up[len(up)-1-i] // the lowest id, which sends the commit, last
					v.boot(id)
					v.net.Restart(id)
				}
				if started < len(v.ids) {
					var at time.Time
					if !v.run(3*gatherFallback, func() bool {
						if at.IsZero() && slices.ContainsFunc(up, func(id memnet.NodeID) bool { return v.cores[id].reconfigN.Load() > 0 }) {
							at = v.now()
						}
						return v.installed(up...)
					}) {
						t.Fatalf("the three formed no ring of their own within %v", 3*gatherFallback)
					}
					if took := at.Sub(first); took < 2*gatherFallback {
						t.Fatalf("a ring was installed %v after the first start, before two GatherTimeouts of %v", took, gatherFallback)
					}
					return
				}
				last := v.now()
				if !v.run(joinRound, func() bool { return v.installed(up...) }) {
					t.Fatalf("no ring of all four within %v of the last start", joinRound)
				}
				t.Logf("ring of four %v after the last start", v.now().Sub(last))
				for _, id := range up {
					if c := v.cores[id]; c.gatherN.Load() != 1 || c.reconfigN.Load() != 1 {
						t.Fatalf("%s began %d gathers and installed %d rings, want one of each", id, c.gatherN.Load(), c.reconfigN.Load())
					}
				}
				v.toldRight()
			})
		})
	}
}

// TestFullHouseReformsWithinAJoinRound: a full-membership reconfiguration
// after a fault — a 2|2 partition healing, a processor restarted with a
// fresh core, which proposes the whole configuration — ends on consensus
// too: the ring of four stands within joinRound of the first gather the
// heal or the restart starts, with no commit given up, though each half
// alone, and the three without the fourth, waited out GatherTimeout. The
// merge keeps the history it always kept: the half with the lowest id's,
// or the three's.
func TestFullHouseReformsWithinAJoinRound(t *testing.T) {
	for _, fault := range []string{"heal", "restart"} {
		t.Run(fault, func(t *testing.T) {
			bothModes(t, func(t *testing.T, mode OrderingMode) {
				v := newVnet(t, 4, 16, func(c *Config) { c.Ordering, c.GatherTimeout = mode, gatherFallback })
				v.settle(3 * gatherFallback)
				var want []uint64
				switch fault {
				case "heal":
					low, high := v.ids[:2], v.ids[2:]
					v.net.Partition(high)
					v.settle(3*gatherFallback, low...)
					v.settle(3*gatherFallback, high...)
					for k := 0; k < 10; k++ {
						v.submit(low[k%2], []byte(fmt.Sprint("low/", k)))
						v.submit(high[k%2], []byte(fmt.Sprint("high/", k)))
					}
					v.settle(time.Second, low...)
					v.settle(time.Second, high...)
					v.net.Heal()
					want = []uint64{0, 0, 1, 1}
				case "restart":
					gone, rest := v.ids[1], []memnet.NodeID{v.ids[0], v.ids[2], v.ids[3]}
					v.net.Crash(gone)
					v.settle(3*gatherFallback, rest...)
					for k := 0; k < 10; k++ {
						v.submit(rest[k%3], []byte(fmt.Sprint("three/", k)))
					}
					v.settle(time.Second, rest...)
					v.boot(gone)
					v.net.Restart(gone)
					want = []uint64{0, 1, 0, 0}
				}
				abandoned := make(map[memnet.NodeID]uint64)
				for _, id := range v.ids {
					abandoned[id] = v.cores[id].gatherN.Load() - v.cores[id].reconfigN.Load()
				}
				// A healed partition is noticed at the first foreign datagram,
				// which in an idle leader epoch is a heartbeat.
				if !v.run(time.Second, func() bool {
					return slices.ContainsFunc(v.ids, func(id memnet.NodeID) bool { return v.cores[id].gathering })
				}) {
					t.Fatalf("nobody gathered after the %s", fault)
				}
				began := v.now()
				if !v.run(joinRound, func() bool { return v.installed(v.ids...) }) {
					t.Fatalf("no ring of all four within %v of the first gather after the %s", joinRound, fault)
				}
				t.Logf("ring of four %v after the first gather", v.now().Sub(began))
				for _, id := range v.ids {
					if c := v.cores[id]; c.gatherN.Load()-c.reconfigN.Load() != abandoned[id] {
						t.Fatalf("%s gave up a commit on the way: %d gathers, %d rings", id, c.gatherN.Load(), c.reconfigN.Load())
					}
				}
				for _, id := range v.ids {
					v.submit(id, []byte(fmt.Sprint("whole/", id)))
				}
				v.settle(time.Second)
				if got := v.resumed(); !reflect.DeepEqual(got, want) {
					t.Fatalf("Resumed = %v, want %v", got, want)
				}
				v.toldRight()
				v.agree(v.ids[0], v.ids...)
			})
		})
	}
}

// TestCommitEntryIsFinal: a gathering member still takes in what the old
// ring ordered — recovery needs every message a survivor holds — until it
// writes its entry into a commit. From there on it takes in no more: the
// ring's starting Seq is read off the entries, and a number a member came
// to hold behind its entry would be given to another message.
func TestCommitEntryIsFinal(t *testing.T) {
	now := time.Unix(1000, 0)
	var sent []token
	n := tokenCore("v01", now, &sent, func(Event) {})
	n.ring, n.ringID, n.last = []memnet.NodeID{"v00", "v01", "v02"}, 5, ringRef{ID: 5, Low: "v00"}
	n.ids = newIDTable(n.ring)
	n.deliveredSeq, n.highest = 8, 8
	n.startGather()
	ordered := func(seq uint64) []byte {
		return encodeRegular(regularMsg{RingID: 5, Seq: seq, Sender: "v00", Payload: []byte("p")}, nil)
	}
	n.Receive(now, ordered(9), 0)
	n.Receive(now, encodeToken(token{RingID: 6, TokenID: 2, Succ: "v01", Members: n.ring, Entries: []commitEntry{{Filled: true}, {}, {}}}, nil), 0)
	n.Receive(now, ordered(10), 0)
	want := commitEntry{Filled: true, Last: ringRef{ID: 5, Low: "v00"}, Highest: 9, Aru: 9}
	if len(sent) != 1 || sent[0].Succ != "v02" || sent[0].Entries[1] != want {
		t.Fatalf("forwarded %+v, want one commit on to v02 with the entry %+v", sent, want)
	}
	if n.highest != 9 || len(n.buffer) != 1 {
		t.Fatalf("highest %d with %d messages buffered behind an entry that says 9", n.highest, len(n.buffer))
	}
}

// TestMissedInstallIsCaughtUp: a commit is decided, and its second
// rotation reaches half the ring — the creator, and a member that read the
// decision in passing. The two hold two messages the others lack: in ring
// mode the creator orders and delivers them in the new ring; in leader
// mode, whose installing rotation orders nothing, the founding epoch's
// sequencer ordered them and they reached the two alone. The other two give
// the commit up and gather again, still standing in the ring
// before. They are not another component: they wrote into that commit, have
// taken in nothing since, and hold a prefix of what the two hold. The next
// commit's creator, which installed the ring they missed, says so in their
// entries, and all four continue — counted apart, the two would have lost
// the even split to the side with the lowest id and been rebuilt though
// they lacked two messages (and under lasting loss, every member whose
// directory was good in turn: replication's lossy sweep, 3 returns of 960).
func TestMissedInstallIsCaughtUp(t *testing.T) {
	bothModes(t, func(t *testing.T, mode OrderingMode) {
		v := newVnet(t, 4, 14, func(c *Config) { c.Ordering = mode })
		v.settle(time.Second)
		for k := 0; k < 8; k++ {
			v.submit(v.ids[k%4], []byte(fmt.Sprint("founding/", k)))
		}
		v.settle(time.Second)
		founding, missed := v.cores[v.ids[0]].ringID, []memnet.NodeID{v.ids[1], v.ids[3]}
		v.dropTokens(func(to memnet.NodeID, tok token) bool {
			return tok.RingID == founding || tok.RingID == founding+1 && tok.Decided && slices.Contains(missed, to)
		})
		lose := v.drop
		v.drop = func(to memnet.NodeID, data []byte) bool {
			return lose(to, data) || data[0] == kindBatch && slices.Contains(missed, to) && bytes.Contains(data, []byte("half/"))
		}
		v.silence(founding)
		v.submit(v.ids[0], []byte("half/0"))
		v.submit(v.ids[0], []byte("half/1"))
		half := v.cores[v.ids[2]]
		if !v.run(time.Second, func() bool { return half.ringID == founding+1 }) {
			t.Fatalf("%s was to read ring %d's decision in passing: ring %d", v.ids[2], founding+1, half.ringID)
		}
		v.settle(time.Second)
		next := v.rings[missed[0]][1]
		tok := v.decided[ringRef{ID: next.RingID, Low: next.Members[0]}]
		for _, id := range missed {
			if e, c := tok.Entries[slices.Index(tok.Members, id)], tok.Entries[0]; e.Aru >= c.Aru {
				t.Fatalf("%s wrote Aru %d into the commit of ring %d and the creator %d: it was to lack the two messages", id, e.Aru, next.RingID, c.Aru)
			}
		}
		for _, id := range v.ids {
			v.submit(id, []byte(fmt.Sprint("whole/", id)))
		}
		v.settle(time.Second)
		if slices.ContainsFunc(v.told, func(w verdict) bool { return slices.Contains(missed, w.id) && w.c.RingID == founding+1 }) {
			t.Fatalf("%v were to miss ring %d: %+v", missed, founding+1, v.told)
		}
		if got, want := v.resumed(), make([]uint64, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("Resumed = %v, want %v", got, want)
		}
		v.toldRight()
		v.agree(v.ids[0], v.ids...)
		if n := len(v.got[missed[1]]); n != 8+2+4 {
			t.Fatalf("%s delivered %d of 14", missed[1], n)
		}
	})
}
