package totem

import (
	"testing"

	"eternalgw/internal/cdr"
	"eternalgw/internal/memnet"
)

// FuzzWireDecoders feeds arbitrary bytes through the ring's wire
// decoders.
func FuzzWireDecoders(f *testing.F) {
	f.Add(encodeRegular(regularMsg{RingID: 1, Seq: 2, Sender: "n", Payload: []byte("p")}, nil))
	f.Add(encodeRegular(regularMsg{RingID: 1, Seq: 2, Sender: "n", Parts: [][]byte{[]byte("a"), []byte("b")}}, nil))
	f.Add(encodeRegular(regularMsg{RingID: 2, Seq: 2, Sender: "n", Via: "m", Payload: []byte("p")}, nil)) // retransmissions
	f.Add(encodeRegular(regularMsg{RingID: 2, Seq: 2, Sender: "n", Via: "m", Parts: [][]byte{[]byte("a"), []byte("b")}}, nil))
	f.Add(encodeToken(token{RingID: 1, TokenID: 2, Seq: 3, Succ: "n", Rtr: []rtrEntry{{Seq: 1}}}))
	f.Add(encodeToken(token{RingID: 1, TokenID: 9, Seq: 7, Aru: 5, Stable: 4, Succ: "n", Rtr: []rtrEntry{{Seq: 6, Age: 2}}, Skip: []uint64{5}}))
	f.Add(encodeToken(token{RingID: 3, TokenID: 2, Succ: "n", Members: []memnet.NodeID{"m", "n"}, // a commit on its first rotation
		Entries: []commitEntry{{Filled: true, Last: ringRef{ID: 2, Low: "m"}, Majority: 1, Highest: 7, Aru: 5}, {}}}))
	f.Add(encodeJoin(joinMsg{Sender: "n", Alive: []memnet.NodeID{"n"}, RingID: 1}))
	f.Add(encodeJoin(joinMsg{Sender: "n", Alive: []memnet.NodeID{"m", "n"}, RingID: 3}))
	f.Add(encodeForward(forwardMsg{RingID: 1, Sender: "n", FwdSeq: 2, Parts: [][]byte{[]byte("p")}}, nil))
	f.Add(encodeForward(forwardMsg{RingID: 1, Sender: "n", FwdSeq: 3, Parts: [][]byte{[]byte("a"), []byte("bb")}}, nil))
	f.Add(encodeBatch(batchMsg{RingID: 1, Seq: 9, Leader: "l", Origin: "n", OriginFwd: 2, Stable: 5, Parts: [][]byte{[]byte("p")}}, nil))
	f.Add(encodeBatch(batchMsg{RingID: 1, Seq: 10, Leader: "l", Origin: "n", OriginFwd: 3, Stable: 5, Ref: true}, nil))
	f.Add(encodeAck(ackMsg{RingID: 1, Sender: "n", Aru: 7, Nak: []uint64{8, 9}}))
	f.Add(encodePromote(promoteMsg{RingID: 1, Leader: "l", StartSeq: 6, Stable: 6, Seq: 9}))
	for _, c := range hostileCommits() {
		f.Add(c.frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := cdr.NewReader(data, cdr.BigEndian)
		switch r.ReadOctet() {
		case kindRegular:
			_, _ = decodeRegular(r, nil)
		case kindPacked:
			_, _ = decodePacked(r, nil)
		case kindToken:
			_, _ = decodeToken(r, nil)
		case kindJoin:
			_, _ = decodeJoin(r)
		case kindForward:
			_, _ = decodeForward(r, nil)
		case kindBatch:
			_, _ = decodeBatch(r, nil)
		case kindAck:
			// Both depths of the ack decode: the sequencer's and everyone
			// else's.
			_, _ = decodeAck(r, nil, true)
			_, _ = decodeAck(cdrSkipKind(data), nil, false)
		case kindPromote:
			_, _ = decodePromote(r, nil)
		}
	})
}
