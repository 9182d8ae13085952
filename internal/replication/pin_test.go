package replication

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
	"weak"

	"eternalgw/internal/memnet"
	"eternalgw/internal/totem"
)

// totemPacked is the kind octet a packed totem message starts with: a
// datagram that carries several payloads (totem's wire.go).
const totemPacked = 4

// packTap is a client member's transport that remembers, weakly, every
// packed datagram the member broadcasts: whether a pack is still
// reachable is the question, and the tap must not be the answer.
type packTap struct {
	*memnet.Endpoint
	mu    sync.Mutex
	packs []tappedPack
}

type tappedPack struct {
	at  weak.Pointer[byte]
	len int
}

func (p *packTap) Broadcast(datagram []byte) error {
	if len(datagram) > 0 && datagram[0] == totemPacked {
		p.mu.Lock()
		p.packs = append(p.packs, tappedPack{weak.Make(&datagram[0]), len(datagram)})
		p.mu.Unlock()
	}
	return p.Endpoint.Broadcast(datagram)
}

// tappedDomain is newDomain with the last of its n members' transport
// tapped.
func tappedDomain(t *testing.T, n int) (*domain, *packTap) {
	t.Helper()
	tap := &packTap{}
	d := newDomainVia(t, n, func(id memnet.NodeID, ep *memnet.Endpoint) totem.Transport {
		if id != memnet.NodeID(fmt.Sprintf("n%02d", n-1)) {
			return ep
		}
		tap.Endpoint = ep
		return tap
	})
	return d, tap
}

// pipeline makes ops appends on grpServer from the client member, callers
// at a time, each caller under a client identifier of its own from
// firstClient on, so that the token finds several waiting and they travel
// packed.
func pipeline(t *testing.T, client *Mechanisms, firstClient uint64, callers, ops int) {
	t.Helper()
	var left atomic.Int64
	left.Store(int64(ops))
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(clientID uint64) {
			defer wg.Done()
			for req := uint32(1); left.Add(-1) >= 0; req++ {
				if _, err := invokeAsClient(t, client, grpClient, clientID, grpServer, req, "append", octets([]byte("x"))); err != nil {
					t.Error(err)
					return
				}
			}
		}(firstClient + uint64(c))
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// TestPackedLogEntriesPinABoundedLog: the recovery log keeps a packed
// invocation by reference, a window onto the whole pack, and is cut at
// every checkpoint. So after many times checkpointInterval operations
// that travelled packed, each replica's log holds at most an interval's
// entries, and every pack none of them refers to — nor a buffered
// message, which the idle ring collects at stability — becomes
// unreachable: the cut let go of it, and so did the part list totem
// decoded it into.
func TestPackedLogEntriesPinABoundedLog(t *testing.T) {
	const ops = 40*checkpointInterval + 7
	d, tap := tappedDomain(t, 4)
	setupClientServer(t, d, Active, 3, 3)
	pipeline(t, d.rms[d.ids[3]], 1, 16, ops)

	tap.mu.Lock()
	packs := append([]tappedPack(nil), tap.packs...)
	tap.mu.Unlock()
	if len(packs) == 0 {
		t.Fatal("no invocation travelled packed: the test shows nothing")
	}
	replicas := d.ids[:3]
	for _, id := range replicas {
		if n := logLen(d.rms[id]); n > checkpointInterval {
			t.Errorf("%s: %d entries logged after %d operations, want at most checkpointInterval (%d)", id, n, ops, checkpointInterval)
		}
	}

	// pinned lists the packs still reachable that no log entry lies in.
	pinned := func() (pinned []int) {
		runtime.GC()
		var logged [][]byte
		for _, id := range replicas {
			m := d.rms[id]
			m.mu.RLock()
			log := m.groups[grpServer].local.log
			m.mu.RUnlock()
			_, entries, err := log.Recover(uint32(grpServer))
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			for _, e := range entries {
				logged = append(logged, e.Data)
			}
		}
		for i, p := range packs {
			at := p.at.Value()
			if at == nil {
				continue
			}
			start := uintptr(unsafe.Pointer(at))
			kept := false
			for _, b := range logged {
				if data := uintptr(unsafe.Pointer(unsafe.SliceData(b))); data >= start && data < start+uintptr(p.len) {
					kept = true
				}
			}
			if !kept {
				pinned = append(pinned, i)
			}
			runtime.KeepAlive(at)
		}
		return pinned
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		p := pinned()
		if len(p) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d packs still reachable with no log entry in them (first: pack %d)", len(p), len(packs), p[0])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWarmBackupLogsStayWithinASync: a warm-passive backup logs what it
// is delivered, packed or not, by reference, and each sync from the
// primary cuts its log. Through a primary crash — the promoted backup
// replays its log — and the new primary's next syncs, every surviving
// replica's log is back within warmSyncInterval entries.
func TestWarmBackupLogsStayWithinASync(t *testing.T) {
	const before, after = 10*warmSyncInterval + 4, 4*warmSyncInterval + 3
	d, tap := tappedDomain(t, 4)
	apps := setupClientServer(t, d, WarmPassive, 3, 3)
	client := d.rms[d.ids[3]]
	pipeline(t, client, 1, 16, before)
	tap.mu.Lock()
	packed := len(tap.packs)
	tap.mu.Unlock()
	if packed == 0 {
		t.Fatal("no invocation travelled packed: the test shows nothing")
	}

	d.net.Crash(d.ids[0])
	waitStat(t, func() uint64 { return d.rms[d.ids[1]].Stats().Failovers }, 1)
	pipeline(t, client, 100, 16, after)

	if _, ops := apps[1].snapshot(); ops != before+after {
		t.Fatalf("the new primary has run %d operations, want %d", ops, before+after)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range d.ids[1:3] {
		for n := logLen(d.rms[id]); n > warmSyncInterval; n = logLen(d.rms[id]) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d entries logged, want at most warmSyncInterval (%d)", id, n, warmSyncInterval)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}
