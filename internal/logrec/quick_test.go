package logrec

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// TestQuickCheckpointSubsumption property: however appends and
// checkpoints interleave, recovery returns the newest checkpoint and
// only the entries beyond it, in their original order — and that image
// rebuilds the live state. The model state is the concatenation of every
// entry appended so far; a checkpoint is cut at the head of the log (a
// member that executes cutting its own) or behind it (a primary's
// synchronization reaching a backup that has already logged further).
func TestQuickCheckpointSubsumption(t *testing.T) {
	f := func(steps []uint16) bool {
		l := NewLog()
		var all []Entry
		fold := func(upTo uint64) []byte {
			var state []byte
			for _, e := range all {
				if e.Seq <= upTo {
					state = append(state, e.Data...)
				}
			}
			return state
		}
		var seq uint64
		cut := -1 // index in all of the newest checkpoint's position
		for _, s := range steps {
			if s%5 == 0 && len(all) > 0 {
				// Positions only move forward, as they do in the total order.
				if ahead := len(all) - 1 - cut; ahead > 0 {
					cut += 1 + int(s/5)%ahead
				}
				l.Checkpoint(1, Checkpoint{Seq: all[cut].Seq, State: fold(all[cut].Seq)})
				continue
			}
			seq += 1 + uint64(s%3)
			e := Entry{Seq: seq, Data: []byte{byte(s)}}
			all = append(all, e)
			l.AppendOwned(1, e)
		}
		cp, entries, err := l.Recover(1)
		if cut < 0 {
			return errors.Is(err, ErrNoCheckpoint)
		}
		if err != nil || cp.Seq != all[cut].Seq || len(entries) != len(all)-1-cut {
			return false
		}
		state, last := cp.State, cp.Seq
		for _, e := range entries {
			if e.Seq <= last {
				return false // subsumed by the checkpoint, or out of order
			}
			last = e.Seq
			state = append(state, e.Data...)
		}
		return bytes.Equal(state, fold(seq))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
