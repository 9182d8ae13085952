// Ablation benchmarks for the design choices DESIGN.md section 5 calls
// out: the totem token parameters, the replica fan-out and the passive
// synchronization interval. Run with: go test -bench=Ablation -benchmem
package eternalgw_test

import (
	"fmt"
	"testing"
	"time"

	"eternalgw/internal/domain"
	"eternalgw/internal/experiments"
	"eternalgw/internal/memnet"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
)

// BenchmarkAblationReplicaCount sweeps the active-replication fan-out:
// each added replica costs one more execution and one more (suppressed)
// response per operation.
func BenchmarkAblationReplicaCount(b *testing.B) {
	for _, k := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			d := benchDomain(b, k+1)
			benchDeploy(b, d, replication.Active, k)
			rm := clientRM(b, d, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rmInvoke(rm, uint32(i+1), "ops", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTotemIdleHold sweeps the idle-token throttle: shorter
// holds cut single-client latency (the token reaches the submitting node
// sooner) at the cost of more rotations per second when idle.
func BenchmarkAblationTotemIdleHold(b *testing.B) {
	for _, hold := range []time.Duration{20 * time.Microsecond, 200 * time.Microsecond, time.Millisecond} {
		b.Run(hold.String(), func(b *testing.B) {
			d, err := domain.New(domain.Config{
				Name:  "abl",
				Nodes: 3,
				Totem: totem.Config{
					IdleHold:        hold,
					TokenRetransmit: 25 * time.Millisecond,
					FailTimeout:     250 * time.Millisecond,
					GatherTimeout:   60 * time.Millisecond,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(d.Close)
			benchDeploy(b, d, replication.Active, 2)
			rm := clientRM(b, d, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rmInvoke(rm, uint32(i+1), "ops", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTotemMaxBurst sweeps the per-token-visit broadcast
// budget under a pipelined (asynchronous) load: small bursts force more
// rotations per message.
func BenchmarkAblationTotemMaxBurst(b *testing.B) {
	for _, burst := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) {
			// Raw totem ring (no replication layer: this ablation owns
			// the event stream).
			net := memnet.New()
			ids := []memnet.NodeID{"a", "b", "c"}
			var nodes []*totem.Node
			for _, id := range ids {
				ep, err := net.Attach(id)
				if err != nil {
					b.Fatal(err)
				}
				n, err := totem.Start(totem.Config{
					ID:              id,
					Endpoint:        ep,
					Members:         ids,
					MaxBurst:        burst,
					IdleHold:        100 * time.Microsecond,
					TokenRetransmit: 25 * time.Millisecond,
					FailTimeout:     250 * time.Millisecond,
					GatherTimeout:   60 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				nodes = append(nodes, n)
				b.Cleanup(n.Stop)
				if id != "a" {
					// Drain the other members' events.
					go func(n *totem.Node) {
						for range n.Events() {
						}
					}(n)
				}
			}
			node := nodes[0]
			// Wait for the first ring installation.
			for ev := range node.Events() {
				if ev.Type == totem.EventConfig && len(ev.Config.Members) == len(ids) {
					break
				}
			}
			payload := make([]byte, 64)
			b.ResetTimer()
			delivered := 0
			for i := 0; i < b.N; i++ {
				if err := node.Multicast(payload); err != nil {
					b.Fatal(err)
				}
			}
			deadline := time.After(30 * time.Second)
			for delivered < b.N {
				select {
				case ev := <-node.Events():
					if ev.Type == totem.EventDeliver {
						delivered++
					}
				case <-deadline:
					b.Fatalf("delivered %d of %d", delivered, b.N)
				}
			}
		})
	}
}

// BenchmarkAblationWarmSyncInterval sweeps how often a warm-passive
// primary publishes state to its backups: frequent syncs cost fault-free
// throughput but shrink the failover replay.
func BenchmarkAblationWarmSyncInterval(b *testing.B) {
	for _, interval := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("sync=%d", interval), func(b *testing.B) {
			d, err := domain.New(domain.Config{
				Name:  "abl",
				Nodes: 3,
				Totem: totem.Config{
					IdleHold:        100 * time.Microsecond,
					TokenRetransmit: 25 * time.Millisecond,
					FailTimeout:     250 * time.Millisecond,
					GatherTimeout:   60 * time.Millisecond,
				},
				Replication: replication.Config{WarmSyncInterval: interval},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(d.Close)
			benchDeploy(b, d, replication.WarmPassive, 2)
			rm := clientRM(b, d, 2)
			args := experiments.OctetSeqArg([]byte("x"))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rmInvoke(rm, uint32(i+1), "append", args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
