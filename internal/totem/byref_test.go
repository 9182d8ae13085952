package totem

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"testing"
	"time"

	"eternalgw/internal/memnet"
)

// rxFilter sits between a node and its endpoint and edits the stream of
// datagrams the node receives: the by-reference tests use it to make one
// member lose, duplicate or reorder exactly the datagrams a scenario is
// about, which random loss cannot aim at.
type rxFilter struct {
	Transport
	out chan memnet.Packet

	mu   sync.Mutex
	rule func(memnet.Packet) []memnet.Packet
}

// newRxFilter wraps inner; until a rule is set everything passes.
func newRxFilter(t *testing.T, inner Transport) *rxFilter {
	// Twice memnet's inbox: a rule may release what it kept back on top of
	// a full inbox's worth, and the filter must never block the network.
	f := &rxFilter{Transport: inner, out: make(chan memnet.Packet, 8192)}
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		for {
			select {
			case <-stop:
				return
			case pkt := <-inner.Recv():
				f.mu.Lock()
				pkts := []memnet.Packet{pkt}
				if f.rule != nil {
					pkts = f.rule(pkt)
				}
				f.mu.Unlock()
				for _, p := range pkts {
					select {
					case f.out <- p:
					case <-stop:
						return
					}
				}
			}
		}
	}()
	return f
}

func (f *rxFilter) Recv() <-chan memnet.Packet { return f.out }

// set installs the rule: it is given each received datagram and returns
// what the node is to see in its place, in order (nothing, the datagram,
// or more — a rule may keep datagrams back and release them later). A
// nil rule passes everything.
func (f *rxFilter) set(rule func(memnet.Packet) []memnet.Packet) {
	f.mu.Lock()
	f.rule = rule
	f.mu.Unlock()
}

// forwardFrom reports whether pkt is a forward originated by id.
func forwardFrom(pkt memnet.Packet, id memnet.NodeID) bool {
	if pkt.Payload[0] != kindForward {
		return false
	}
	f, err := decodeForward(cdrSkipKind(pkt.Payload), nil)
	return err == nil && f.Sender == id
}

// batchOf decodes pkt when it is an ordered batch.
func batchOf(pkt memnet.Packet) (batchMsg, bool) {
	if pkt.Payload[0] != kindBatch {
		return batchMsg{}, false
	}
	b, err := decodeBatch(cdrSkipKind(pkt.Payload), nil)
	return b, err == nil
}

// filteredLeaderCluster is newLeaderCluster with an rxFilter in front of
// every member.
func filteredLeaderCluster(t *testing.T, n int, mut func(*Config)) (*cluster, map[memnet.NodeID]*rxFilter) {
	t.Helper()
	filters := make(map[memnet.NodeID]*rxFilter)
	c := newClusterCfg(t, n, func(cfg *Config) {
		cfg.Ordering = OrderingLeader
		if mut != nil {
			mut(cfg)
		}
		f := newRxFilter(t, cfg.Endpoint)
		filters[cfg.ID] = f
		cfg.Endpoint = f
	})
	for _, id := range c.ids {
		c.waitConfig(id, n)
	}
	return c, filters
}

// followers returns the ring's members other than the sequencer.
func (c *cluster) followers(leader memnet.NodeID) []memnet.NodeID {
	var out []memnet.NodeID
	for _, id := range c.ids {
		if id != leader {
			out = append(out, id)
		}
	}
	return out
}

// sameStream fails unless every listed member delivered the identical
// (Seq, Sub, Sender, payload) stream, strictly increasing — which also
// means nothing was delivered twice at one sequence number.
func sameStream(t *testing.T, streams map[memnet.NodeID][]Delivery) {
	t.Helper()
	var refID memnet.NodeID
	var ref []Delivery
	for id, got := range streams {
		for i := 1; i < len(got); i++ {
			if got[i].Timestamp() <= got[i-1].Timestamp() {
				t.Fatalf("%s: delivery %d at (%d,%d) does not follow (%d,%d)", id, i, got[i].Seq, got[i].Sub, got[i-1].Seq, got[i-1].Sub)
			}
		}
		if ref == nil {
			refID, ref = id, got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s delivered %d messages, %s %d", id, len(got), refID, len(ref))
		}
		for i := range ref {
			if got[i].Seq != ref[i].Seq || got[i].Sub != ref[i].Sub || got[i].Sender != ref[i].Sender ||
				crc32.ChecksumIEEE(got[i].Payload) != crc32.ChecksumIEEE(ref[i].Payload) {
				t.Fatalf("%s delivery %d = (%d,%d) from %s, %d bytes; %s has (%d,%d) from %s, %d bytes", id, i,
					got[i].Seq, got[i].Sub, got[i].Sender, len(got[i].Payload),
					refID, ref[i].Seq, ref[i].Sub, ref[i].Sender, len(ref[i].Payload))
			}
		}
	}
}

// quiesce waits for the sequencer's stability horizon to catch up with
// what it assigned, stops every node, and fails if any by-reference
// table still has an entry: held forwards and parked references are all
// bound, superseded or dropped once traffic stops.
func (c *cluster) quiesce(leader memnet.NodeID) {
	c.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.nodes[leader].Stats().StabilityLag != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			c.t.Fatalf("stability lag stuck at %d", c.nodes[leader].Stats().StabilityLag)
		}
	}
	for _, id := range c.ids {
		n := c.nodes[id]
		n.Stop()
		held := 0
		for _, h := range n.core.fp.held {
			held += len(h)
		}
		if held != 0 || len(n.core.fp.parked) != 0 || len(n.core.fp.awaiting) != 0 {
			c.t.Errorf("%s at quiescence: %d held forwards, %d parked references, %d awaiting forwards", id, held, len(n.core.fp.parked), len(n.core.fp.awaiting))
		}
	}
}

// TestForwardsAreOrderedByReference is the tentpole's happy path: on a
// lossless 4-node ring a follower's forward is ordered by a batch
// without payloads, the sequencer's own submissions by a full one, each
// payload crosses the ring once, and every member delivers the same
// stream. TestSharedDatagramsStayIntact runs the same ring with the
// datagram checksums audited.
func TestForwardsAreOrderedByReference(t *testing.T) {
	for _, size := range []int{64, 16 << 10} {
		t.Run(fmt.Sprint(size, "B"), func(t *testing.T) {
			ledger := &datagramLedger{}
			c := newClusterCfg(t, 4, func(cfg *Config) {
				cfg.Ordering = OrderingLeader
				cfg.Endpoint = &auditTransport{Transport: cfg.Endpoint, ledger: ledger}
			})
			for _, id := range c.ids {
				c.waitConfig(id, 4)
			}
			leader, _ := c.waitFastpath()

			// A closed loop per member, so that references are bound, not
			// outrun: each member multicasts its next payload when it has
			// delivered its previous one.
			const per = 25
			streams := make(map[memnet.NodeID][]Delivery)
			var mu sync.Mutex
			var wg sync.WaitGroup
			for k, id := range c.ids {
				wg.Add(1)
				go func(k int, id memnet.NodeID) {
					defer wg.Done()
					n := c.nodes[id]
					var got []Delivery
					own := 0
					send := func() {
						_ = n.Multicast(bytes.Repeat([]byte{byte(own), byte(k)}, size/2))
					}
					send()
					deadline := time.After(20 * time.Second)
					for len(got) < per*len(c.ids) {
						select {
						case ev := <-n.Events():
							if ev.Type != EventDeliver {
								continue
							}
							got = append(got, ev.Delivery)
							if ev.Delivery.Sender == id {
								if own++; own < per {
									send()
								}
							}
						case <-deadline:
							t.Errorf("%s: %d of %d deliveries", id, len(got), per*len(c.ids))
							return
						}
					}
					mu.Lock()
					streams[id] = got
					mu.Unlock()
				}(k, id)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			sameStream(t, streams)
			for _, d := range streams[leader] {
				if want := bytes.Repeat(d.Payload[:2], size/2); !bytes.Equal(d.Payload, want) {
					t.Fatalf("delivery (%d,%d) is not the payload its sender multicast", d.Seq, d.Sub)
				}
			}

			// What went over the wire. The first batch for a sequence
			// number is the ordering one; later ones are retransmissions.
			ledger.mu.Lock()
			ordered := make(map[uint64]bool)
			var refs, fulls, payloadBytes int
			for _, e := range ledger.entries {
				switch e.payload[0] {
				case kindForward:
					payloadBytes += len(e.payload)
				case kindBatch:
					b, err := decodeBatch(cdrSkipKind(e.payload), nil)
					if err != nil {
						t.Fatal(err)
					}
					payloadBytes += len(e.payload)
					if ordered[b.Seq] {
						if b.Ref {
							t.Errorf("seq %d retransmitted by reference", b.Seq)
						}
						continue
					}
					ordered[b.Seq] = true
					switch {
					case b.Origin == leader && b.Ref:
						t.Errorf("seq %d: the sequencer ordered its own submission by reference", b.Seq)
					case b.Origin != leader && !b.Ref:
						t.Errorf("seq %d: %s's forward was ordered by a payload-carrying batch", b.Seq, b.Origin)
					case b.Ref:
						refs++
					default:
						fulls++
					}
				}
			}
			ledger.mu.Unlock()
			if refs != per*3 || fulls != per {
				t.Errorf("%d by-reference and %d full ordering batches, want %d and %d", refs, fulls, per*3, per)
			}
			st := c.nodes[leader].Stats()
			if st.RefBatches != uint64(refs) || st.LeaderBatches != uint64(refs+fulls) {
				t.Errorf("sequencer counted %d batches, %d by reference; the wire had %d and %d", st.LeaderBatches, st.RefBatches, refs+fulls, refs)
			}
			// Every payload crossed the ring once: four messages' worth of
			// bytes per round, plus headers and the odd retransmission —
			// not the seven a re-sending sequencer needs.
			if limit := per * len(c.ids) * (size + 256) * 5 / 4; payloadBytes > limit {
				t.Errorf("forwards and batches put %d bytes on the wire, over %d", payloadBytes, limit)
			}
			ledger.verify(t, "after delivery")
			c.quiesce(leader)
		})
	}
}

// TestByReferenceRecovery aims faults at one follower's view of another
// member's forwards — the datagrams by-reference ordering depends on —
// and checks that each is absorbed: the same stream everywhere, nothing
// twice, and no table left holding anything.
func TestByReferenceRecovery(t *testing.T) {
	const msgs = 30
	// run drives one scenario: origin multicasts msgs payloads, victim's
	// filter is armed by arm, and the victim's and sequencer's counters
	// are handed to check.
	run := func(t *testing.T, mut func(*Config), arm func(f *rxFilter, origin, leader memnet.NodeID), total int,
		check func(t *testing.T, victim, seq Stats)) {
		c, filters := filteredLeaderCluster(t, 4, mut)
		leader, _ := c.waitFastpath()
		fol := c.followers(leader)
		origin, victim := fol[0], fol[1]
		arm(filters[victim], origin, leader)
		for i := 0; i < total; i++ {
			c.forwardAlone(origin, []byte{byte(i), byte(i >> 8), 'x'})
		}
		streams := make(map[memnet.NodeID][]Delivery)
		for _, id := range c.ids {
			streams[id] = c.collect(id, total)
		}
		sameStream(t, streams)
		for i, d := range streams[victim] {
			if int(d.Payload[0])|int(d.Payload[1])<<8 != i || d.Sender != origin {
				t.Fatalf("delivery %d carries payload %v from %s", i, d.Payload[:2], d.Sender)
			}
		}
		check(t, c.nodes[victim].Stats(), c.nodes[leader].Stats())
		filters[victim].set(nil)
		c.quiesce(leader)
	}
	// For the scenarios that must see no retransmission at all: a stall
	// of the machine between a reference and the forward right behind it
	// must not outlast the wait a parked reference gets.
	patient := func(cfg *Config) { cfg.TokenRetransmit = time.Second }

	t.Run("forward lost", func(t *testing.T) {
		run(t, nil, func(f *rxFilter, origin, _ memnet.NodeID) {
			f.set(func(pkt memnet.Packet) []memnet.Packet {
				if forwardFrom(pkt, origin) {
					return nil
				}
				return []memnet.Packet{pkt}
			})
		}, msgs, func(t *testing.T, victim, seq Stats) {
			// Every reference parked, waited, and was served in full.
			if victim.RefMisses != msgs {
				t.Errorf("victim counted %d reference misses, want %d", victim.RefMisses, msgs)
			}
			if seq.Retransmitted < msgs {
				t.Errorf("sequencer retransmitted %d, want at least %d", seq.Retransmitted, msgs)
			}
		})
	})

	t.Run("reference first", func(t *testing.T) {
		run(t, patient, func(f *rxFilter, origin, _ memnet.NodeID) {
			// Every forward waits for the batch that orders it and is let
			// through right behind it (or at once, when the reference has
			// overtaken it without the filter's help).
			waiting := make(map[uint64]memnet.Packet)
			ordered := make(map[uint64]bool)
			f.set(func(pkt memnet.Packet) []memnet.Packet {
				if forwardFrom(pkt, origin) {
					fw, _ := decodeForward(cdrSkipKind(pkt.Payload), nil)
					if ordered[fw.FwdSeq] {
						return []memnet.Packet{pkt}
					}
					waiting[fw.FwdSeq] = pkt
					return nil
				}
				if b, ok := batchOf(pkt); ok && b.Ref && b.Origin == origin {
					ordered[b.OriginFwd] = true
					if w, ok := waiting[b.OriginFwd]; ok {
						delete(waiting, b.OriginFwd)
						return []memnet.Packet{pkt, w}
					}
				}
				return []memnet.Packet{pkt}
			})
		}, msgs, func(t *testing.T, victim, seq Stats) {
			// Parked references were bound by their forwards: nobody
			// asked for, or sent, a full form.
			if victim.RefMisses != 0 || seq.Retransmitted != 0 {
				t.Errorf("victim missed %d references, sequencer retransmitted %d; want 0 and 0", victim.RefMisses, seq.Retransmitted)
			}
		})
	})

	t.Run("forward twice", func(t *testing.T) {
		run(t, patient, func(f *rxFilter, origin, _ memnet.NodeID) {
			// One copy ahead of the reference, one behind it.
			var again []memnet.Packet
			f.set(func(pkt memnet.Packet) []memnet.Packet {
				if forwardFrom(pkt, origin) {
					again = append(again, pkt)
					return []memnet.Packet{pkt, pkt}
				}
				if b, ok := batchOf(pkt); ok && b.Origin == origin {
					out := append([]memnet.Packet{pkt}, again...)
					again = nil
					return out
				}
				return []memnet.Packet{pkt}
			})
		}, msgs, func(t *testing.T, victim, seq Stats) {
			if victim.RefMisses != 0 || seq.Retransmitted != 0 {
				t.Errorf("victim missed %d references, sequencer retransmitted %d; want 0 and 0", victim.RefMisses, seq.Retransmitted)
			}
		})
	})

	t.Run("bound exceeded", func(t *testing.T) {
		// The victim sees the origin's whole burst before the first
		// batch: it can hold maxHeldFwds of the forwards and park
		// maxParkedRefs of the references that find none; the rest are
		// plain gaps. How many of the parked ones a resend by the origin
		// binds before their nak goes out depends on how fast the
		// sequencer is.
		const burst = maxHeldFwds + maxParkedRefs + 20
		run(t, nil, func(f *rxFilter, origin, _ memnet.NodeID) {
			var batches []memnet.Packet
			forwards := 0
			f.set(func(pkt memnet.Packet) []memnet.Packet {
				if forwards >= burst {
					return []memnet.Packet{pkt}
				}
				if _, ok := batchOf(pkt); ok {
					batches = append(batches, pkt)
					return nil
				}
				if forwardFrom(pkt, origin) {
					if forwards++; forwards == burst {
						return append([]memnet.Packet{pkt}, batches...)
					}
				}
				return []memnet.Packet{pkt}
			})
		}, burst, func(t *testing.T, victim, seq Stats) {
			if victim.RefMisses == 0 || seq.Retransmitted == 0 {
				t.Errorf("victim counted %d reference misses, sequencer %d retransmissions; the burst was held whole", victim.RefMisses, seq.Retransmitted)
			}
		})
	})
}

// forwardAlone multicasts payload from follower id and waits until id has
// forwarded it, so that a payload multicast after it travels in a forward,
// and is ordered by a reference, of its own.
func (c *cluster) forwardAlone(id memnet.NodeID, payload []byte) {
	c.t.Helper()
	n := c.nodes[id]
	want := n.Stats().Forwarded + 1
	if err := n.Multicast(payload); err != nil {
		c.t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); n.Stats().Forwarded < want; time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			c.t.Fatalf("%s did not forward its payload", id)
		}
	}
}

// collectDistinct consumes events from node id until want distinct
// payloads have been delivered, and returns every delivery on the way.
func (c *cluster) collectDistinct(id memnet.NodeID, want int) []Delivery {
	c.t.Helper()
	var out []Delivery
	seen := make(map[string]bool)
	deadline := time.After(10 * time.Second)
	for len(seen) < want {
		select {
		case ev := <-c.nodes[id].Events():
			if ev.Type == EventDeliver {
				out = append(out, ev.Delivery)
				seen[string(ev.Delivery.Payload)] = true
			}
		case <-deadline:
			c.t.Fatalf("%s: %d of %d distinct payloads delivered", id, len(seen), want)
		}
	}
	return out
}

// TestDemotionDropsByReferenceState demotes the ring — by crashing the
// sequencer, and by the stability-lag limit — while one follower holds
// forwards no reference has come for and references no forward has come
// for. The guarantees are the ones demotion always had: the members of
// the recovered ring deliver one stream, nothing twice at one sequence
// number, and every payload at least once (a requeued forward may be
// delivered again under a new sequence number, which the replication
// layer's dedup absorbs).
func TestDemotionDropsByReferenceState(t *testing.T) {
	const msgs = 24
	payloads := func(c *cluster, from memnet.NodeID, tag byte) {
		for i := 0; i < msgs; i++ {
			c.forwardAlone(from, []byte{tag, byte(i)})
		}
	}
	// prefixAgree checks the streams of the recovered ring's members: a
	// member may have been cut off one delivery behind another, so the
	// shorter stream must be a prefix of the longer.
	prefixAgree := func(t *testing.T, streams map[memnet.NodeID][]Delivery) {
		t.Helper()
		shortest := -1
		for _, s := range streams {
			if shortest < 0 || len(s) < shortest {
				shortest = len(s)
			}
		}
		cut := make(map[memnet.NodeID][]Delivery)
		for id, s := range streams {
			cut[id] = s[:shortest]
		}
		sameStream(t, cut)
	}

	t.Run("sequencer crash", func(t *testing.T) {
		c, filters := filteredLeaderCluster(t, 4, nil)
		leader, _ := c.waitFastpath()
		fol := c.followers(leader)
		a, b, victim := fol[0], fol[1], fol[2]
		// Until it demotes the victim sees b's forwards and never the
		// batches that order them (held, unordered), and a's references
		// and never their payloads, forwarded or retransmitted (parked,
		// unbound).
		filters[victim].set(func(pkt memnet.Packet) []memnet.Packet {
			if forwardFrom(pkt, a) {
				return nil
			}
			if bm, ok := batchOf(pkt); ok && (bm.Origin == b || !bm.Ref) {
				return nil
			}
			return []memnet.Packet{pkt}
		})
		payloads(c, a, 'a')
		payloads(c, b, 'b')
		// Let the sequencer order some of it, then take it away.
		for deadline := time.Now().Add(5 * time.Second); c.nodes[leader].Stats().RefBatches < msgs/2; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("the sequencer ordered nothing")
			}
		}
		c.net.Crash(leader)
		for _, id := range fol {
			for deadline := time.Now().Add(5 * time.Second); c.nodes[id].Stats().Demotions == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s never demoted", id)
				}
			}
		}
		filters[victim].set(nil)
		streams := make(map[memnet.NodeID][]Delivery)
		for _, id := range fol {
			streams[id] = c.collectDistinct(id, 2*msgs)
		}
		prefixAgree(t, streams)
	})

	t.Run("lag limit", func(t *testing.T) {
		// On the virtual clock: the wall clock would take longer than a
		// fail timeout to order lagLimit messages, and demote for that.
		v, seq, a := leaderVnet(t, 7)
		victim := v.ids[slices.IndexFunc(v.ids, func(id memnet.NodeID) bool { return id != seq && id != a })]
		// The victim holds a's forwards and sees none of the batches that
		// order them, so its watermark stands still and the sequencer runs
		// into the lag limit with references in flight.
		v.drop = func(to memnet.NodeID, data []byte) bool { return to == victim && data[0] == kindBatch }
		sent := make(map[uint32]bool)
		due, start := v.now(), v.now()
		v.feed = func() {
			for ; !due.After(v.now()); due = due.Add(10 * time.Microsecond) {
				p := []byte(fmt.Sprintf("%-64s", fmt.Sprint("a/", len(sent))))
				sent[crc32.ChecksumIEEE(p)] = true
				v.submit(a, p)
			}
		}
		sc := v.cores[seq]
		if !v.run(time.Second, func() bool { return sc.demotionN.Load() > 0 }) {
			t.Fatal("the sequencer never demoted at the lag limit")
		}
		if at := v.now().Sub(start); at >= sc.cfg.FailTimeout {
			t.Fatalf("the sequencer demoted %v in, not within FailTimeout %v: not at the lag limit", at, sc.cfg.FailTimeout)
		}
		v.feed, v.drop = nil, nil
		v.settle(time.Second)
		v.agree(seq, v.ids...)
		for _, id := range v.ids {
			got := make(map[uint32]bool)
			for _, d := range v.got[id] {
				if sent[d.crc] {
					got[d.crc] = true
				}
			}
			if n := len(got); n != len(sent) {
				t.Fatalf("%s delivered %d distinct payloads, %d were multicast", id, n, len(sent))
			}
		}
	})
}
