package totem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"eternalgw/internal/cdr"
	"eternalgw/internal/memnet"
)

// seedDatagrams is one datagram of every kind and form a core sends.
func seedDatagrams() [][]byte {
	seeds := [][]byte{
		encodeRegular(regularMsg{RingID: 1, Seq: 2, Sender: "n", Payload: []byte("p")}, nil),
		encodeRegular(regularMsg{RingID: 1, Seq: 2, Sender: "n", Parts: [][]byte{[]byte("a"), []byte("b")}}, nil),
		encodeRegular(regularMsg{RingID: 2, Seq: 2, Sender: "n", Via: "m", Payload: []byte("p")}, nil), // retransmissions
		encodeRegular(regularMsg{RingID: 2, Seq: 2, Sender: "n", Via: "m", Parts: [][]byte{[]byte("a"), []byte("b")}}, nil),
		encodeToken(token{RingID: 1, TokenID: 2, Seq: 3, Succ: "n", Rtr: []rtrEntry{{Seq: 1}}}, nil),
		encodeToken(token{RingID: 1, TokenID: 9, Seq: 7, Aru: 5, Stable: 4, Succ: "n", Rtr: []rtrEntry{{Seq: 6, Age: 2}}, Skip: []uint64{5}}, nil),
		encodeToken(token{RingID: 3, TokenID: 2, Succ: "n", Members: []memnet.NodeID{"m", "n"}, // a commit on its first rotation
			Entries: []commitEntry{{Filled: true, Last: ringRef{ID: 2, Low: "m"}, Majority: 1, Highest: 7, Aru: 5}, {}}}, nil),
		encodeJoin(joinMsg{Sender: "n", Alive: []memnet.NodeID{"n"}, RingID: 1}, nil),
		encodeJoin(joinMsg{Sender: "n", Alive: []memnet.NodeID{"m", "n"}, RingID: 3}, nil),
		encodeForward(forwardMsg{RingID: 1, Sender: "n", FwdSeq: 2, Parts: [][]byte{[]byte("p")}}, nil),
		encodeForward(forwardMsg{RingID: 1, Sender: "n", FwdSeq: 3, Parts: [][]byte{[]byte("a"), []byte("bb")}}, nil),
		encodeBatch(batchMsg{RingID: 1, Seq: 9, Leader: "l", Origin: "n", OriginFwd: 2, Stable: 5, Parts: [][]byte{[]byte("p")}}, nil, nil),
		encodeBatch(batchMsg{RingID: 1, Seq: 10, Leader: "l", Origin: "n", OriginFwd: 3, Stable: 5, Ref: true}, nil, nil),
		encodeAck(ackMsg{RingID: 1, Sender: "n", Aru: 7, Nak: []uint64{8, 9}}, nil),
		encodePromote(promoteMsg{RingID: 1, Leader: "l", StartSeq: 6, Stable: 6, Seq: 9}, nil),
	}
	for _, c := range hostileCommits() {
		seeds = append(seeds, c.frame)
	}
	return seeds
}

// decodeAny decodes a datagram of any kind, an ack at the sequencer's
// depth.
func decodeAny(data []byte) (any, error) {
	r := cdr.NewReader(data, cdr.BigEndian)
	kind := r.ReadOctet()
	switch kind {
	case kindRegular:
		return decodeRegular(r, nil)
	case kindPacked:
		return decodePacked(r, nil, nil)
	case kindToken:
		return decodeToken(r, nil)
	case kindJoin:
		return decodeJoin(r, nil, nil)
	case kindForward:
		return decodeForward(r, nil, nil)
	case kindBatch:
		return decodeBatch(r, nil, nil)
	case kindAck:
		return decodeAck(r, nil, true)
	case kindPromote:
		return decodePromote(r, nil)
	}
	return nil, fmt.Errorf("no datagram kind %d", kind)
}

// encodeAny encodes a message decodeAny returned.
func encodeAny(msg any) []byte {
	switch m := msg.(type) {
	case regularMsg:
		return encodeRegular(m, nil)
	case token:
		return encodeToken(m, nil)
	case joinMsg:
		return encodeJoin(m, nil)
	case forwardMsg:
		return encodeForward(m, nil)
	case batchMsg:
		return encodeBatch(m, nil, nil)
	case ackMsg:
		return encodeAck(m, nil)
	case promoteMsg:
		return encodePromote(m, nil)
	}
	panic(fmt.Sprintf("no encoder for %T", msg))
}

// FuzzWireDecoders feeds arbitrary bytes through the ring's wire
// decoders. What decodes must re-encode to bytes that decode to the same
// message: encoder and decoder agree on hostile input too, not only on
// what the encoder wrote.
func FuzzWireDecoders(f *testing.F) {
	for _, seed := range seedDatagrams() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 && data[0] == kindAck {
			// Everyone else's depth of the ack decode.
			_, _ = decodeAck(cdrSkipKind(data), nil, false)
		}
		msg, err := decodeAny(data)
		if err != nil {
			return
		}
		again, err := decodeAny(encodeAny(msg))
		if err != nil || !reflect.DeepEqual(again, msg) {
			t.Fatalf("%+v re-decodes as %+v (%v)", msg, again, err)
		}
	})
}

// TestHostileCounts overwrites each aligned 4-byte window of every seed
// datagram — every place a CDR count can sit — with a hostile count and
// decodes it. A count no guard stops sizes an allocation from the wire,
// so the decode may allocate at most a constant multiple of the datagram.
// A guard that skips the list instead of failing decodes a message the
// datagram is longer than, so what decodes must re-encode to as many
// bytes.
func TestHostileCounts(t *testing.T) {
	for _, seed := range seedDatagrams() {
		for at := 4; at+4 <= len(seed); at += 4 {
			data := bytes.Clone(seed)
			binary.BigEndian.PutUint32(data[at:], 1<<20)
			var msg any
			var err error
			if n := allocated(func() { msg, err = decodeAny(data) }); n > 64*len(data)+4096 {
				t.Fatalf("kind %d with a hostile count at %d: a %d-byte datagram allocated %d bytes", data[0], at, len(data), n)
			}
			if err == nil && len(encodeAny(msg)) != len(data) {
				t.Fatalf("kind %d with a hostile count at %d decoded %+v, which re-encodes to %d of its %d bytes", data[0], at, msg, len(encodeAny(msg)), len(data))
			}
		}
	}
}

// allocated returns the fewest bytes fn allocated in three runs: another
// goroutine's allocation can inflate one reading, not all three.
func allocated(fn func()) int {
	least := -1
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if n := int(after.TotalAlloc - before.TotalAlloc); least < 0 || n < least {
			least = n
		}
	}
	return least
}
