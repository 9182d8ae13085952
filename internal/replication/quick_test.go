package replication

import (
	"bytes"
	"testing"
	"testing/quick"

	"eternalgw/internal/logrec"
	"eternalgw/internal/memnet"
)

// TestQuickMessageRoundTrip property: every infrastructure message
// survives Encode/Decode byte-for-byte.
func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(kind uint8, clientID uint64, src, dst uint32, parentTS uint64, childSeq uint32, payload []byte) bool {
		msg := Message{
			Header: Header{
				Kind:     Kind(kind%8 + 1),
				ClientID: clientID,
				SrcGroup: GroupID(src),
				DstGroup: GroupID(dst),
				Op:       OperationID{ParentTS: parentTS, ChildSeq: childSeq},
			},
			Payload: payload,
		}
		got, err := Decode(Encode(msg))
		if err != nil {
			return false
		}
		return got.Header == msg.Header && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDecodeNeverPanics property: arbitrary bytes never panic the
// infrastructure decoder.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStatePayloadRoundTrip property: recovery images — a checkpoint
// at any position, with or without a log suffix behind it — survive
// their codec.
func TestQuickStatePayloadRoundTrip(t *testing.T) {
	f := func(target string, seq, opCount uint64, state, e1, e2 []byte, suffix bool) bool {
		p := statePayload{
			Target:     memnetNodeID(stripNULs(target)),
			Checkpoint: logrec.Checkpoint{Seq: seq, OpCount: opCount, State: state},
		}
		if suffix {
			p.Entries = []logrec.Entry{{Seq: seq + 1, Data: e1}, {Seq: seq + 2, Data: e2}}
		}
		got, err := decodeState(encodeState(p))
		if err != nil {
			return false
		}
		if got.Target != p.Target || got.Checkpoint.Seq != seq || got.Checkpoint.OpCount != opCount ||
			!bytes.Equal(got.Checkpoint.State, state) || len(got.Entries) != len(p.Entries) {
			return false
		}
		for i, e := range p.Entries {
			if got.Entries[i].Seq != e.Seq || !bytes.Equal(got.Entries[i].Data, e.Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickViewChangeRoundTrip property: view-change membership deltas
// survive their codec.
func TestQuickViewChangeRoundTrip(t *testing.T) {
	f := func(add, remove []string) bool {
		var p viewChangePayload
		for _, n := range add {
			p.Add = append(p.Add, memnetNodeID(stripNULs(n)))
		}
		for _, n := range remove {
			p.Remove = append(p.Remove, memnetNodeID(stripNULs(n)))
		}
		got, err := decodeViewChange(encodeViewChange(p))
		if err != nil {
			return false
		}
		if len(got.Add) != len(p.Add) || len(got.Remove) != len(p.Remove) {
			return false
		}
		for i := range p.Add {
			if got.Add[i] != p.Add[i] {
				return false
			}
		}
		for i := range p.Remove {
			if got.Remove[i] != p.Remove[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOperationIDUniqueness property: distinct (ParentTS, ChildSeq)
// pairs produce distinct duplicate-detection keys, and identical pairs
// identical keys — the figure 6 guarantee the dedup tables rely on.
func TestQuickOperationIDUniqueness(t *testing.T) {
	f := func(ts1, ts2 uint64, seq1, seq2 uint32, client uint64, src uint32) bool {
		k1 := opKey{src: GroupID(src), clientID: client, op: OperationID{ParentTS: ts1, ChildSeq: seq1}}
		k2 := opKey{src: GroupID(src), clientID: client, op: OperationID{ParentTS: ts2, ChildSeq: seq2}}
		same := ts1 == ts2 && seq1 == seq2
		return (k1 == k2) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// helpers for the quick tests.
func stripNULs(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r != 0 {
			out = append(out, r)
		}
	}
	return string(out)
}

func memnetNodeID(s string) memnet.NodeID { return memnet.NodeID(s) }
