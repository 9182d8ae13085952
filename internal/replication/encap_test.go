package replication

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/orb"
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
// decode back to the message that went in. The two forms that build a
// message where it is sent from are held to the same bytes.
func TestEncapsulationWireFormUnchanged(t *testing.T) {
	t.Run("reply built in place", replyBuiltInPlace)
	t.Run("request conveyed verbatim", requestConveyedVerbatim)
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

// scriptedApp's servant writes what each operation's name says.
type scriptedApp struct{ regApp }

var errScripted = errors.New("scripted failure")

func (*scriptedApp) Invoke(op string, args *cdr.Reader, reply *cdr.Writer) error {
	data := args.ReadOctetSeq()
	switch op {
	case "nothing":
	case "echo":
		reply.WriteOctetSeq(data)
	case "fail-half-way":
		reply.WriteOctetSeq(data)
		reply.WriteULong(7)
		return errScripted
	case "refuse":
		reply.WriteOctetSeq(data)
		return &orb.SystemException{RepoID: orb.RepoTransient, Minor: 5}
	}
	return args.Err()
}

// replyBuiltInPlace (a row of TestEncapsulationWireFormUnchanged): the response a replica builds in
// the datagram it sends — headers first, the servant's result written
// behind them, status and lengths last — is byte for byte EncodeReply of
// the reply the servant used to hand back: for an empty result, 64 B and
// 64 KiB, in either byte order, for a servant error after a partial
// write, a servant's own system exception and, one level down, a user
// exception; behind any headroom, which stays unwritten.
func replyBuiltInPlace(t *testing.T) {
	const room = 23
	inv := Header{Kind: KindInvocation, ClientID: 0xC0FFEE, SrcGroup: 1, DstGroup: 100, Op: OperationID{ParentTS: 1 << 33, ChildSeq: 7}}
	rh := responseHeader(inv)
	r := &replica{m: &Mechanisms{room: room}, app: &scriptedApp{}}
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		exception := func(repo string, minor uint32) giop.Reply {
			return giop.Reply{RequestID: 42, Status: giop.ReplySystemException, ResultOrder: order,
				Result: giop.SystemExceptionBody(order, repo, minor, giop.CompletedYes)}
		}
		for _, c := range []struct {
			op   string
			n    int
			want func(result []byte) giop.Reply
		}{
			{"nothing", 0, func([]byte) giop.Reply { return giop.Reply{RequestID: 42, ResultOrder: order} }},
			{"echo", 64, func(res []byte) giop.Reply { return giop.Reply{RequestID: 42, Result: res, ResultOrder: order} }},
			{"echo", 64 << 10, func(res []byte) giop.Reply { return giop.Reply{RequestID: 42, Result: res, ResultOrder: order} }},
			{"fail-half-way", 64, func([]byte) giop.Reply { return exception(orb.RepoUnknown, 0) }},
			{"fail-half-way", 64 << 10, func([]byte) giop.Reply { return exception(orb.RepoUnknown, 0) }},
			{"refuse", 64, func([]byte) giop.Reply { return exception(orb.RepoTransient, 5) }},
		} {
			t.Run(fmt.Sprintf("order=%d/%s/%d", order, c.op, c.n), func(t *testing.T) {
				w := cdr.NewWriter(order)
				w.WriteOctetSeq(bytes.Repeat([]byte{0xa5}, c.n))
				req := giop.Request{RequestID: 42, ResponseExpected: true, Operation: c.op, Args: w.Bytes(), ArgsOrder: order}
				enc, err := r.respond(rh, req)
				if err != nil {
					t.Fatal(err)
				}
				want, err := EncodeReply(rh, c.want(w.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(enc[room:], want) {
					t.Fatalf("built in place the response differs from EncodeReply's (%d vs %d bytes)", len(enc)-room, len(want))
				}
				if !bytes.Equal(enc[:room], make([]byte, room)) {
					t.Fatal("the headroom was written to")
				}
				if c.n >= 1<<10 && cap(enc) > 2*len(enc) {
					t.Errorf("the response's buffer has cap %d for %d bytes", cap(enc), len(enc))
				}
			})
		}
		// A user exception is not something InvokeServant produces; the
		// open/seal pair carries any status.
		rep := giop.Reply{RequestID: 42, Status: giop.ReplyUserException, ResultOrder: order}
		buf, err := giop.OpenReply(openPayload(room, rh, replyStart), order, 0, rep)
		if err != nil {
			t.Fatal(err)
		}
		rep.Result = []byte("IDL:Bank/Overdrawn:1.0\x00")
		if buf, err = giop.SealReply(append(buf, rep.Result...), room+headerLen, order, 0, rep); err != nil {
			t.Fatal(err)
		}
		if want, _ := EncodeReply(rh, rep); !bytes.Equal(sealPayload(room, buf)[room:], want) {
			t.Errorf("order %d: a user exception built in place differs from EncodeReply's", order)
		}
	}
}

// requestConveyedVerbatim (a row of TestEncapsulationWireFormUnchanged): a request read off a client's socket into
// the invocation's datagram (giop.Reassembler.Room, Mechanisms.Headroom)
// travels as the client framed it — the fault-tolerance header, then the
// client's bytes, in GIOP 1.0, 1.1 or 1.2, either byte order, whole or
// reassembled from three fragments — and decodes at a replica to the
// request the gateway decoded. A replica built before this form existed
// reads it too, and this one reads the re-marshalled 1.0 form such a
// replica's gateway sends: both go through giop.DecodeRequest, which
// has read all three versions since PR 8.
func requestConveyedVerbatim(t *testing.T) {
	const room = 23
	h := Header{Kind: KindInvocation, ClientID: 0xC0FFEE, SrcGroup: 1, DstGroup: 100, Op: OperationID{ParentTS: 1 << 33, ChildSeq: 7}}
	for _, c := range verbatimCases() {
		t.Run(c.name, func(t *testing.T) {
			msg, frame := c.read(t, room+headerLen)
			atGateway, err := giop.DecodeRequest(msg)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := frameInvocation(room, h, frame)
			if err != nil {
				t.Fatal(err)
			}
			if &enc[0] != &frame[0] || len(enc) != len(frame) {
				t.Fatal("the invocation is not the buffer the request was read into")
			}
			want := Encode(Message{Header: h, Payload: giop.Marshal(c.sent)})
			if !bytes.Equal(enc[room:], want) {
				t.Fatalf("conveyed %d bytes, not the header and the client's %d", len(enc)-room, len(want))
			}
			hv, err := DecodeHeader(enc[room:])
			if err != nil {
				t.Fatal(err)
			}
			atReplica, err := decodeRequest(hv.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if hv.Header != h || !sameRequest(atReplica, atGateway) {
				t.Fatalf("the replica decoded %s under %+v, the gateway %s", brief(atReplica), hv.Header, brief(atGateway))
			}
			// The other form of the same invocation, as a gateway of the
			// previous version sends it, decodes to the same request: the
			// two may share a ring.
			old, err := EncodeRequest(h, atGateway)
			if err != nil {
				t.Fatal(err)
			}
			ohv, err := DecodeHeader(old)
			if err != nil {
				t.Fatal(err)
			}
			fromOld, err := decodeRequest(ohv.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRequest(fromOld, atGateway) {
				t.Fatalf("re-marshalled as 1.0 the request decodes as %s, verbatim as %s", brief(fromOld), brief(atGateway))
			}
		})
	}
	if _, err := frameInvocation(room, h, make([]byte, room+headerLen+giop.HeaderSize-1)); err == nil {
		t.Error("a frame too short to hold a GIOP header was conveyed")
	}
}

// sameRequest compares two decoded requests field by field (1.2 has no
// principal, 1.0 carries an empty one: both are none).
func sameRequest(a, b giop.Request) bool {
	return a.RequestID == b.RequestID && a.ResponseExpected == b.ResponseExpected && a.Operation == b.Operation &&
		a.ArgsOrder == b.ArgsOrder && bytes.Equal(a.ObjectKey, b.ObjectKey) && bytes.Equal(a.Principal, b.Principal) &&
		bytes.Equal(a.Args, b.Args) && reflect.DeepEqual(a.ServiceContexts, b.ServiceContexts)
}

func brief(r giop.Request) string {
	return fmt.Sprintf("{id %d expected %v key %q op %q principal %q contexts %v order %d, %d bytes of arguments}",
		r.RequestID, r.ResponseExpected, r.ObjectKey, r.Operation, r.Principal, r.ServiceContexts, r.ArgsOrder, len(r.Args))
}

// verbatimCase is one request as a client frames it, and as a gateway's
// reassembler reads it behind room unwritten bytes.
type verbatimCase struct {
	name string
	sent giop.Message
	read func(t testing.TB, room int) (giop.Message, []byte)
}

func verbatimCases() []verbatimCase {
	var cases []verbatimCase
	for _, minor := range []byte{0, 1, 2} {
		for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
			for _, frag := range []int{0, 3} {
				if frag > 0 && (minor != 2 || order != cdr.BigEndian) {
					continue
				}
				w := cdr.NewWriter(order)
				w.WriteOctetSeq(bytes.Repeat([]byte{0xa5}, 4000))
				sent, err := giop.EncodeRequestV(order, minor, giop.Request{
					RequestID: 42, ResponseExpected: true, ObjectKey: []byte("bench/register"), Operation: "echo", Args: w.Bytes(),
					ServiceContexts: []giop.ServiceContext{{ID: giop.FTClientContextID, Data: []byte("client-7")}},
				})
				if err != nil {
					panic(err)
				}
				fragSize := 0
				if frag > 0 {
					fragSize = len(sent.Body)/frag + 1
				}
				cases = append(cases, verbatimCase{
					name: fmt.Sprintf("giop1.%d/order=%d/fragments=%d", minor, order, frag),
					sent: sent,
					read: func(t testing.TB, room int) (giop.Message, []byte) {
						var wire bytes.Buffer
						if err := giop.WriteMessageFragmented(&wire, sent, fragSize); err != nil {
							t.Fatal(err)
						}
						if frag > 0 && wire.Len() != len(sent.Body)+frag*giop.HeaderSize+(frag-1)*4 {
							t.Fatalf("%d bytes on the wire: not %d fragments", wire.Len(), frag)
						}
						ra := giop.NewReassembler(&wire, 0)
						ra.Room = room
						msg, err := ra.Next()
						if err != nil {
							t.Fatal(err)
						}
						return msg, msg.Frame
					},
				})
			}
		}
	}
	return cases
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
