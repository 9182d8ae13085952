package replication

import (
	"bytes"
	"fmt"
	"testing"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
)

// threeStepRequest is the encapsulation chain Invoke used to run — body
// writer, Marshal's header+body copy, Encode's header+payload copy — kept
// here as the reference the single-buffer encoder must match byte for
// byte: members running either form share one ring.
func threeStepRequest(t testing.TB, h Header, req giop.Request) []byte {
	t.Helper()
	wire, err := giop.EncodeRequest(req.ArgsOrder, req)
	if err != nil {
		t.Fatal(err)
	}
	return Encode(Message{Header: h, Payload: giop.Marshal(wire)})
}

// threeStepReply is the chain replica.respond used to run.
func threeStepReply(t testing.TB, h Header, rep giop.Reply) []byte {
	t.Helper()
	wire, err := giop.EncodeReply(rep.ResultOrder, rep)
	if err != nil {
		t.Fatal(err)
	}
	return Encode(Message{Header: h, Payload: giop.Marshal(wire)})
}

// TestEncapsulationWireFormUnchanged: for requests as the gateway decodes
// them from GIOP 1.0, 1.1 and 1.2 clients in either byte order, and for
// the replies to them, with empty and 64 KiB bodies, EncodeRequest and
// EncodeReply produce the three-step chain's bytes, and those bytes
// decode back to the message that went in.
func TestEncapsulationWireFormUnchanged(t *testing.T) {
	h := Header{Kind: KindInvocation, ClientID: 0xC0FFEE, SrcGroup: 1, DstGroup: 100, Op: OperationID{ParentTS: 1 << 33, ChildSeq: 7}}
	for _, minor := range []byte{0, 1, 2} {
		for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
			for _, n := range []int{0, 64 << 10} {
				t.Run(fmt.Sprintf("giop1.%d/order=%d/body=%d", minor, order, n), func(t *testing.T) {
					body := bytes.Repeat([]byte{0xa5}, n)
					// The client's framing, as the gateway reads it.
					fromClient, err := giop.EncodeRequestV(order, minor, giop.Request{
						RequestID: 42, ResponseExpected: true, ObjectKey: []byte("bench/register"), Operation: "echo", Args: body,
						ServiceContexts: []giop.ServiceContext{{ID: giop.FTClientContextID, Data: []byte("client-7")}},
					})
					if err != nil {
						t.Fatal(err)
					}
					req, err := giop.DecodeRequest(fromClient)
					if err != nil {
						t.Fatal(err)
					}
					got, err := EncodeRequest(h, req)
					if err != nil {
						t.Fatal(err)
					}
					if want := threeStepRequest(t, h, req); !bytes.Equal(got, want) {
						t.Fatalf("EncodeRequest differs from the three-step chain (%d vs %d bytes)", len(got), len(want))
					}
					hv, err := DecodeHeader(got)
					if err != nil {
						t.Fatal(err)
					}
					wire, err := giop.Unmarshal(hv.Payload)
					if err != nil {
						t.Fatal(err)
					}
					back, err := giop.DecodeRequest(wire)
					if err != nil {
						t.Fatal(err)
					}
					if hv.Header != h || back.RequestID != 42 || back.Operation != "echo" ||
						!bytes.Equal(back.ObjectKey, req.ObjectKey) || !bytes.Equal(back.Args, req.Args) || back.ArgsOrder != order {
						t.Fatalf("request did not survive encapsulation: %+v", hv.Header)
					}

					rh := Header{Kind: KindResponse, ClientID: h.ClientID, SrcGroup: h.DstGroup, DstGroup: h.SrcGroup, Op: h.Op}
					rep := giop.Reply{RequestID: 42, Status: giop.ReplyNoException, Result: body, ResultOrder: order}
					gotRep, err := EncodeReply(rh, rep)
					if err != nil {
						t.Fatal(err)
					}
					if want := threeStepReply(t, rh, rep); !bytes.Equal(gotRep, want) {
						t.Fatalf("EncodeReply differs from the three-step chain (%d vs %d bytes)", len(gotRep), len(want))
					}
					if n > 0 && cap(gotRep) > 2*len(gotRep) {
						t.Errorf("EncodeReply's buffer has cap %d for %d bytes: it regrew", cap(gotRep), len(gotRep))
					}
				})
			}
		}
	}
}

// checkEncapsulated is the fuzz form of the same property: whatever
// encapsulated IIOP message a multicast decodes to re-encodes, through
// the single-buffer encoders, to what the three-step chain gives.
func checkEncapsulated(t *testing.T, msg Message) {
	wire, err := giop.Unmarshal(msg.Payload)
	if err != nil {
		return
	}
	if req, err := giop.DecodeRequest(wire); err == nil {
		got, err := EncodeRequest(msg.Header, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, threeStepRequest(t, msg.Header, req)) {
			t.Fatalf("EncodeRequest differs from the three-step chain for %+v", req)
		}
	}
	if rep, err := giop.DecodeReply(wire); err == nil {
		got, err := EncodeReply(msg.Header, rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, threeStepReply(t, msg.Header, rep)) {
			t.Fatalf("EncodeReply differs from the three-step chain for %+v", rep)
		}
	}
}
