package replication

import (
	"reflect"
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
	// Recovery images inside the messages that carry them (the fuzz body
	// reaches decodeState through Decode): a donation — checkpoint at a
	// non-zero position with a suffix of real invocations, and without
	// one — and a passive primary's sync, the checkpoint alone.
	inv, _ := EncodeRequest(Header{Kind: KindInvocation, ClientID: 9, SrcGroup: 1, DstGroup: 100, Op: OperationID{ChildSeq: 8}},
		giop.Request{RequestID: 8, ResponseExpected: true, ObjectKey: []byte("k"), Operation: "append", Args: []byte{1}})
	cp := logrec.Checkpoint{Seq: 7 << 16, OpCount: 7, State: []byte("state")}
	suffix := []logrec.Entry{{Seq: 8 << 16, Data: inv}, {Seq: 9 << 16, Data: inv}}
	image := func(kind Kind, p statePayload) []byte {
		return Encode(Message{Header: Header{Kind: kind, SrcGroup: 100, DstGroup: 100}, Payload: encodeState(p)})
	}
	f.Add(image(KindStateTransfer, statePayload{Target: "n02", Checkpoint: cp, Entries: suffix}))
	f.Add(image(KindStateTransfer, statePayload{Target: "n02", Checkpoint: cp}))
	f.Add(image(KindStateSync, statePayload{Checkpoint: cp}))
	// Membership deltas as JoinGroup, LeaveGroup and a replace send them.
	delta := func(p viewChangePayload) []byte {
		return Encode(Message{Header: Header{Kind: KindViewChange, DstGroup: 100}, Payload: encodeViewChange(p)})
	}
	f.Add(delta(viewChangePayload{Add: []memnet.NodeID{"n02"}}))
	f.Add(delta(viewChangePayload{Remove: []memnet.NodeID{"n02"}}))
	f.Add(delta(viewChangePayload{Add: []memnet.NodeID{"a"}, Remove: []memnet.NodeID{"b"}}))
	// Directory recovery, both forms of the one kind: the request of an
	// awaiting member — no payload, the ring it asks in in the header —
	// and a snapshot that echoes it, names the asker and is cut at the
	// position the request was delivered at, of an empty directory and of
	// one with a group in its third view.
	sync := Header{Kind: KindMembershipSync, ClientID: UnusedClientID, Op: OperationID{ParentTS: 7}}
	f.Add(Encode(Message{Header: sync}))
	f.Add(Encode(Message{Header: sync, Payload: encodeMembershipSync(membershipSyncPayload{Asker: "n00", Cut: 41 << 16})}))
	f.Add(Encode(Message{Header: sync, Payload: encodeMembershipSync(membershipSyncPayload{Asker: "n00", Cut: 41<<16 | 3, Groups: []syncGroup{
		{ID: 100, Style: WarmPassive, ObjectKey: []byte("k"), View: 3, ViewSeq: 17 << 16, Members: []memnet.NodeID{"n02", "n01"}},
	}})}))
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		h := Header{Kind: KindInvocation, ClientID: 9, SrcGroup: 1, DstGroup: 100, Op: OperationID{ChildSeq: 3}}
		req, _ := EncodeRequest(h, giop.Request{RequestID: 3, ResponseExpected: true, ObjectKey: []byte("k"), Operation: "echo", Args: []byte{1, 2, 3}, ArgsOrder: order})
		f.Add(req)
		h.Kind = KindResponse
		rep, _ := EncodeReply(h, giop.Reply{RequestID: 3, Result: []byte{4, 5}, ResultOrder: order})
		f.Add(rep)
	}
	// Invocations as a gateway conveys them: the client's bytes, in its
	// GIOP version and byte order, behind the header.
	for _, c := range verbatimCases() {
		_, frame := c.read(f, headerLen)
		inv, err := frameInvocation(0, Header{Kind: KindInvocation, ClientID: 9, SrcGroup: 1, DstGroup: 100, Op: OperationID{ChildSeq: 42}}, frame)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(inv)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg, err := Decode(data); err == nil {
			checkEncapsulated(t, msg)
			_, _ = decodeCreateGroup(msg.Payload)
			_, _ = decodeState(msg.Payload)
			_ = stateTarget(msg.Payload)
			_, _ = decodeViewChange(msg.Payload)
			if p, err := decodeMembershipSync(msg.Payload); err == nil && len(msg.Payload) > 0 {
				// What decodes encodes to something that decodes alike: an
				// adopter and a later donor hold the same directory.
				if q, err := decodeMembershipSync(encodeMembershipSync(p)); err != nil || !reflect.DeepEqual(p, q) {
					t.Fatalf("snapshot %+v re-decodes as %+v (%v)", p, q, err)
				}
			}
		}
	})
}
