package replication

import (
	"testing"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/logrec"
	"eternalgw/internal/memnet"
)

// FuzzDecode feeds arbitrary bytes through the infrastructure message
// decoder and every payload decoder.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(Message{Header: Header{Kind: KindInvocation, ClientID: 1, SrcGroup: 2, DstGroup: 3, Op: OperationID{ParentTS: 4, ChildSeq: 5}}, Payload: []byte("x")}))
	f.Add(encodeCreateGroup(createGroupPayload{Style: Active, ObjectKey: []byte("k")}))
	f.Add(encodeState(statePayload{Target: "n", JoinTS: 1, OpCount: 2, State: []byte("s"),
		CpSeq: 1, Entries: []logrec.Entry{{Seq: 2, Data: []byte("e")}}}))
	f.Add(encodeViewChange(viewChangePayload{Add: []memnet.NodeID{"a"}, Remove: []memnet.NodeID{"b"}}))
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		h := Header{Kind: KindInvocation, ClientID: 9, SrcGroup: 1, DstGroup: 100, Op: OperationID{ChildSeq: 3}}
		req, _ := EncodeRequest(h, giop.Request{RequestID: 3, ResponseExpected: true, ObjectKey: []byte("k"), Operation: "echo", Args: []byte{1, 2, 3}, ArgsOrder: order})
		f.Add(req)
		h.Kind = KindResponse
		rep, _ := EncodeReply(h, giop.Reply{RequestID: 3, Result: []byte{4, 5}, ResultOrder: order})
		f.Add(rep)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg, err := Decode(data); err == nil {
			checkEncapsulated(t, msg)
			_, _ = decodeCreateGroup(msg.Payload)
			_, _ = decodeMember(msg.Payload)
			_, _ = decodeState(msg.Payload)
			_, _ = decodeViewChange(msg.Payload)
		}
	})
}
