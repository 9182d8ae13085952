package giop

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"eternalgw/internal/cdr"
)

func TestRequest12RoundTrip(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		req := Request{
			ServiceContexts:  []ServiceContext{{ID: FTClientContextID, Data: []byte("c1")}},
			RequestID:        42,
			ResponseExpected: true,
			ObjectKey:        []byte("trading/GOOG"),
			Operation:        "buy",
			Args:             []byte{9, 8, 7, 6},
		}
		msg, err := EncodeRequestV(order, 2, req)
		if err != nil {
			t.Fatalf("%v: encode: %v", order, err)
		}
		if msg.Header.Minor != 2 {
			t.Fatalf("minor = %d", msg.Header.Minor)
		}
		got, err := DecodeRequest(msg)
		if err != nil {
			t.Fatalf("%v: decode: %v", order, err)
		}
		if got.RequestID != 42 || !got.ResponseExpected ||
			string(got.ObjectKey) != "trading/GOOG" || got.Operation != "buy" ||
			!bytes.Equal(got.Args, req.Args) {
			t.Fatalf("%v: got %+v", order, got)
		}
		if data, ok := ContextByID(got.ServiceContexts, FTClientContextID); !ok || string(data) != "c1" {
			t.Fatalf("%v: service context lost", order)
		}
	}
}

func TestRequest12OneWay(t *testing.T) {
	msg, err := EncodeRequestV(cdr.BigEndian, 2, Request{RequestID: 1, Operation: "fire", ObjectKey: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.ResponseExpected {
		t.Fatal("oneway decoded as response-expected")
	}
	if len(got.Args) != 0 {
		t.Fatalf("args = %v", got.Args)
	}
}

func TestReply12RoundTrip(t *testing.T) {
	rep := Reply{
		RequestID: 7,
		Status:    ReplyNoException,
		Result:    []byte{1, 2, 3},
	}
	msg, err := EncodeReplyV(cdr.LittleEndian, 2, rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReply(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.RequestID != 7 || got.Status != ReplyNoException || !bytes.Equal(got.Result, rep.Result) {
		t.Fatalf("got %+v", got)
	}
	if got.ResultOrder != cdr.LittleEndian {
		t.Fatalf("result order = %v", got.ResultOrder)
	}
}

func TestReply12EmptyBody(t *testing.T) {
	msg, err := EncodeReplyV(cdr.BigEndian, 2, Reply{RequestID: 1, Status: ReplyNoException})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReply(msg)
	if err != nil || len(got.Result) != 0 {
		t.Fatalf("got %+v, %v", got, err)
	}
}

func TestRequest12RejectsProfileAddressing(t *testing.T) {
	// Hand-build a 1.2 request with a ProfileAddr target.
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteULong(1) // request id
	w.WriteOctet(responseFlagsExpected)
	w.WriteOctet(0)
	w.WriteOctet(0)
	w.WriteOctet(0)
	w.WriteUShort(TargetProfileAddr)
	msg := Message{Header: Header{Major: 1, Minor: 2, Order: cdr.BigEndian, Type: MsgRequest}, Body: w.Bytes()}
	if _, err := DecodeRequest(msg); !errors.Is(err, ErrUnsupportedTarget) {
		t.Fatalf("err = %v, want ErrUnsupportedTarget", err)
	}
}

func TestEncodeRequestVRejectsUnknownMinor(t *testing.T) {
	if _, err := EncodeRequestV(cdr.BigEndian, 3, Request{}); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
	if _, err := EncodeReplyV(cdr.BigEndian, 9, Reply{}); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestRequest11RoundTrip(t *testing.T) {
	// GIOP 1.1 inserts reserved[3] after response_expected; the
	// round trip must preserve every field.
	req := Request{
		RequestID:        5,
		ResponseExpected: true,
		ObjectKey:        []byte("k"),
		Operation:        "op",
		Principal:        []byte("p"),
		Args:             []byte{1, 2, 3},
	}
	m1, err := EncodeRequestV(cdr.BigEndian, 1, req)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Header.Minor != 1 {
		t.Fatalf("minor = %d", m1.Header.Minor)
	}
	// Note: with these field values the 1.1 body coincides with 1.0 —
	// the spec placed reserved[3] exactly where 1.0 emits alignment
	// padding — but the decoder must treat the octets as reserved, not
	// as padding, which a misaligning prefix would expose.
	if len(m1.Body) < 12 {
		t.Fatalf("implausible 1.1 body: %d bytes", len(m1.Body))
	}
	got, err := DecodeRequest(m1)
	if err != nil {
		t.Fatal(err)
	}
	if got.RequestID != 5 || !got.ResponseExpected || got.Operation != "op" ||
		string(got.ObjectKey) != "k" || string(got.Principal) != "p" || !bytes.Equal(got.Args, req.Args) {
		t.Fatalf("got %+v", got)
	}
}

func TestQuickRequest12RoundTrip(t *testing.T) {
	f := func(id uint32, expected bool, key, args []byte, op string, little bool) bool {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		op = sanitize(op)
		msg, err := EncodeRequestV(order, 2, Request{
			RequestID:        id,
			ResponseExpected: expected,
			ObjectKey:        key,
			Operation:        op,
			Args:             args,
		})
		if err != nil {
			return false
		}
		got, err := DecodeRequest(msg)
		if err != nil {
			return false
		}
		return got.RequestID == id &&
			got.ResponseExpected == expected &&
			bytes.Equal(got.ObjectKey, key) &&
			got.Operation == op &&
			bytes.Equal(got.Args, args)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuick12DecodersNeverPanic(t *testing.T) {
	f := func(body []byte, little bool) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		msg := Message{Header: Header{Major: 1, Minor: 2, Order: order, Type: MsgRequest}, Body: body}
		_, _ = DecodeRequest(msg)
		msg.Header.Type = MsgReply
		_, _ = DecodeReply(msg)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReplyHeadThenResultIsTheFramedReply pins what a gathered write puts
// on the wire: for every minor version, both byte orders, with and without
// service contexts, and for empty, odd-sized and fragment-sized results,
// AppendReplyHead's bytes followed by the result are exactly what
// WriteMessage writes of EncodeReplyV's message — behind whatever the
// destination already held.
func TestReplyHeadThenResultIsTheFramedReply(t *testing.T) {
	for _, minor := range []byte{0, 1, 2} {
		for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
			for _, ctx := range [][]ServiceContext{nil, {{ID: 3, Data: []byte("ctx")}}} {
				for _, n := range []int{0, 5, 64 << 10} {
					rep := Reply{RequestID: 77, Status: ReplyUserException, Result: bytes.Repeat([]byte{0x5a}, n), ResultOrder: order, ServiceContexts: ctx}
					msg, err := EncodeReplyV(order, minor, rep)
					if err != nil {
						t.Fatal(err)
					}
					var want bytes.Buffer
					if err := WriteMessage(&want, msg); err != nil {
						t.Fatal(err)
					}
					head, err := AppendReplyHead([]byte("kept"), order, minor, rep)
					if err != nil {
						t.Fatal(err)
					}
					if got := append(head[4:len(head):len(head)], rep.Result...); string(head[:4]) != "kept" || !bytes.Equal(got, want.Bytes()) {
						t.Errorf("1.%d order %d contexts %d result %d: head and result differ from the framed reply (%d vs %d bytes)",
							minor, order, len(ctx), n, len(got), want.Len())
					}
				}
			}
		}
	}
	if _, err := AppendReplyHead(nil, cdr.BigEndian, 3, Reply{}); !errors.Is(err, ErrBadVersion) {
		t.Errorf("minor 3: err = %v, want ErrBadVersion", err)
	}
	if _, err := AppendReplyHead(nil, cdr.BigEndian, 0, Reply{Result: make([]byte, MaxMessageSize)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized reply: err = %v, want ErrTooLarge", err)
	}
}

// TestSizeHintsBoundEveryVersion: the allowance the encoders preallocate
// by is allocated with every message the domain conveys, so it is the
// worst case and no more. For every minor version and every residue of
// the variable-length fields' lengths — which is what decides the padding
// — the hint is at least the encoded body, and for some residue, without
// service contexts, within eight bytes of it.
func TestSizeHintsBoundEveryVersion(t *testing.T) {
	for _, minor := range []byte{0, 1, 2} {
		tightest := map[string]int{"request": 1 << 20, "reply": 1 << 20}
		for n := 0; n < 8*8*8*8; n++ {
			key, op, principal, ctx := n%8, n/8%8, n/64%8, n/512%8
			req := Request{RequestID: 1, ResponseExpected: true, ObjectKey: make([]byte, key), Operation: strings.Repeat("o", op),
				Args: make([]byte, 24)}
			if minor < 2 {
				req.Principal = make([]byte, principal) // 1.2 has none
			}
			rep := Reply{RequestID: 1, Result: make([]byte, 24)}
			if ctx > 0 {
				req.ServiceContexts = []ServiceContext{{ID: 1, Data: make([]byte, ctx)}, {ID: 2, Data: make([]byte, principal)}}
				rep.ServiceContexts = req.ServiceContexts
			}
			qm, err := EncodeRequestV(cdr.BigEndian, minor, req)
			if err != nil {
				t.Fatal(err)
			}
			pm, err := EncodeReplyV(cdr.BigEndian, minor, rep)
			if err != nil {
				t.Fatal(err)
			}
			// The client's gathered write sizes its scratch by the same bound.
			if head, err := AppendRequestHead(nil, cdr.BigEndian, minor, req); err != nil || len(head)+len(req.Args) != HeaderSize+len(qm.Body) {
				t.Fatalf("1.%d key %d op %d principal %d contexts %d: AppendRequestHead gives %d bytes ahead of %d of arguments for a %d-byte body (%v)",
					minor, key, op, principal, ctx, len(head), len(req.Args), len(qm.Body), err)
			}
			for _, c := range []struct {
				what       string
				hint, body int
			}{{"request", requestSizeHint(req), len(qm.Body)}, {"reply", replySizeHint(rep), len(pm.Body)}} {
				if c.hint < c.body {
					t.Fatalf("1.%d %s key %d op %d principal %d contexts %d: hint %d is below the %d-byte body", minor, c.what, key, op, principal, ctx, c.hint, c.body)
				}
				if ctx == 0 {
					tightest[c.what] = min(tightest[c.what], c.hint-c.body)
				}
			}
		}
		for what, slack := range tightest {
			if slack > 8 {
				t.Errorf("1.%d %s: the hint is never closer than %d bytes to the body it bounds", minor, what, slack)
			}
		}
	}
}
