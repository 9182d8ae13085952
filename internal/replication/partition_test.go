package replication

import (
	"sync"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/memnet"
)

// TestPartitionHealingDiscardsStaleMinority exercises primary-component
// membership reconciliation after a ring merge. A replica node isolated
// into a minority partition keeps a stale servant and, having evicted
// everyone else from its directory, believes it is the group. Without
// QuorumOf the majority keeps executing, so on merge the two components
// disagree. The majority's directory must win: the returning node
// discards its stale replica at the merge configuration (before any
// post-merge delivery), adopts the broadcast directory snapshot, and
// never answers from stale state again.
func TestPartitionHealingDiscardsStaleMinority(t *testing.T) {
	d := newDomain(t, 4)
	// Replicas on n00 and n01, client on n03.
	apps := setupClientServer(t, d, Active, 2, 3)
	client := d.rms[d.ids[3]]

	for i := 0; i < 4; i++ {
		if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(i+1), "append", octets([]byte("a"))); err != nil {
			t.Fatal(err)
		}
	}

	// Isolate n00. Both sides must finish reconfiguring before the heal:
	// the survivors evict n00 from the group, and n00 — alone in a
	// singleton ring — evicts n01, keeping its now-stale replica live.
	d.net.Crash(d.ids[0])
	waitFor(t, 5*time.Second, func() bool {
		ms := d.rms[d.ids[1]].Members(grpServer)
		return len(ms) == 1 && ms[0] == d.ids[1]
	})
	waitFor(t, 5*time.Second, func() bool {
		ms := d.rms[d.ids[0]].Members(grpServer)
		return len(ms) == 1 && ms[0] == d.ids[0]
	})

	// The majority component keeps executing, advancing past the
	// partitioned replica's state.
	for i := 0; i < 4; i++ {
		if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(100+i), "append", octets([]byte("b"))); err != nil {
			t.Fatal(err)
		}
	}

	// Heal the partition. The majority (3 of 4 nodes) broadcasts its
	// directory; the minority node adopts exactly one snapshot.
	d.net.Restart(d.ids[0])
	waitStat(t, func() uint64 { return d.rms[d.ids[0]].Stats().MembershipSyncs }, 1)

	// Every node converges on the majority's directory: n01 is the sole
	// member, at an identical view number.
	waitFor(t, 5*time.Second, func() bool {
		want, ok := d.rms[d.ids[1]].View(grpServer)
		if !ok {
			return false
		}
		for _, n := range d.ids {
			v, ok := d.rms[n].View(grpServer)
			if !ok || v.Number != want.Number || len(v.Members) != 1 || v.Members[0] != d.ids[1] {
				return false
			}
		}
		return true
	})

	// Post-merge invocations are served from the surviving replica's
	// state; the discarded replica never executes again.
	_, staleOps := apps[0].snapshot()
	for i := 0; i < 3; i++ {
		if _, err := invokeAsClient(t, client, grpClient, 1, grpServer, uint32(200+i), "append", octets([]byte("c"))); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := invokeAsClient(t, client, grpClient, 1, grpServer, 300, "count", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != giop.ReplyNoException {
		t.Fatalf("status = %v", rep.Status)
	}
	r := cdr.NewReader(rep.Result, rep.ResultOrder)
	if got := r.ReadLongLong(); got != 11 || r.Err() != nil {
		t.Fatalf("count = %d (err %v), want 11", got, r.Err())
	}
	if _, ops := apps[1].snapshot(); ops != 11 {
		t.Fatalf("surviving replica ops = %d, want 11", ops)
	}
	if _, ops := apps[0].snapshot(); ops != staleOps {
		t.Fatalf("discarded replica executed after merge: ops %d -> %d", staleOps, ops)
	}
}

// TestReturnUnderLoadKeepsDirectory is ROADMAP item 1 one layer above
// where it broke: a processor that was cut off while the ring stayed
// busy returns, rejoins the ring and adopts the majority's directory.
// A client on n03 invokes an active group on n00..n02 in a loop beside a
// stream of payloads that are not infrastructure messages (they only
// run the sequence numbers up); n01 is cut off for 1.5 s and returns,
// then n02. Before totem kept one history across a merge, the returner
// installed the 4-ring and never delivered again — its old watermark
// pinned the ring's horizon and the token carried one retransmission
// request per sequence number it had missed — so the snapshot never
// reached it.
func TestReturnUnderLoadKeepsDirectory(t *testing.T) {
	d := newDomain(t, 4)
	setupClientServer(t, d, Active, 3, 3)
	client := d.rms[d.ids[3]]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	wg.Add(2)
	go func() {
		defer wg.Done()
		junk := make([]byte, 64) // kind 0: not an infrastructure message
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d.nodes[d.ids[3]].Multicast(junk) != nil {
				return
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()
	go func() {
		defer wg.Done()
		for req := uint32(1); ; req++ {
			select {
			case <-stop:
				return
			default:
			}
			// Errors are the reconfigurations' business, not this test's.
			_, _ = client.Invoke(grpClient, 1, grpServer, OperationID{ChildSeq: req}, giop.Request{
				RequestID: req, ResponseExpected: true, ObjectKey: []byte(testKeyStr), Operation: "append", Args: octets([]byte("x")),
			}, 200*time.Millisecond)
		}
	}()

	for _, victim := range []memnet.NodeID{d.ids[1], d.ids[2]} {
		before := d.rms[victim].Stats().MembershipSyncs
		d.net.Crash(victim)
		time.Sleep(1500 * time.Millisecond)
		d.net.Restart(victim)
		deadline := time.Now().Add(10 * time.Second)
		for len(d.nodes[victim].Members()) != 4 || d.rms[victim].Stats().MembershipSyncs == before {
			if time.Now().After(deadline) {
				t.Fatalf("victim %s: ring %v, syncs %d -> %d: did not rejoin and adopt the directory",
					victim, d.nodes[victim].Members(), before, d.rms[victim].Stats().MembershipSyncs)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}
