package giop

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"eternalgw/internal/cdr"
)

func TestHeaderRoundTrip(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		h := Header{Major: 1, Minor: 0, Order: order, Type: MsgReply, Size: 1234}
		enc := encodeHeader(h)
		if len(enc) != HeaderSize {
			t.Fatalf("header size %d", len(enc))
		}
		got, err := parseHeader([12]byte(enc))
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if got != h {
			t.Errorf("round trip %+v != %+v", got, h)
		}
	}
}

func TestParseHeaderRejectsBadMagic(t *testing.T) {
	var hdr [12]byte
	copy(hdr[:], "JUNK")
	if _, err := parseHeader(hdr); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestParseHeaderRejectsBadVersion(t *testing.T) {
	var hdr [12]byte
	copy(hdr[:], "GIOP")
	hdr[4], hdr[5] = 2, 0
	if _, err := parseHeader(hdr); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestParseHeaderRejectsHugeSize(t *testing.T) {
	var hdr [12]byte
	copy(hdr[:], "GIOP")
	hdr[4], hdr[5] = 1, 0
	hdr[8], hdr[9], hdr[10], hdr[11] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := parseHeader(hdr); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	args := cdr.NewWriter(cdr.BigEndian)
	args.WriteString("buy")
	args.WriteULong(100)

	req := Request{
		ServiceContexts: []ServiceContext{
			{ID: FTClientContextID, Data: []byte("client-7")},
			{ID: 1, Data: []byte{9, 9}},
		},
		RequestID:        42,
		ResponseExpected: true,
		ObjectKey:        []byte("trading/GOOG"),
		Operation:        "buy_shares",
		Principal:        []byte("nobody"),
		Args:             args.Bytes(),
	}
	msg, err := EncodeRequest(cdr.BigEndian, req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeRequest(msg)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.RequestID != 42 || !got.ResponseExpected {
		t.Errorf("id/expected = %d/%v", got.RequestID, got.ResponseExpected)
	}
	if string(got.ObjectKey) != "trading/GOOG" {
		t.Errorf("object key = %q", got.ObjectKey)
	}
	if got.Operation != "buy_shares" {
		t.Errorf("operation = %q", got.Operation)
	}
	if string(got.Principal) != "nobody" {
		t.Errorf("principal = %q", got.Principal)
	}
	if len(got.ServiceContexts) != 2 {
		t.Fatalf("contexts = %d", len(got.ServiceContexts))
	}
	if data, ok := ContextByID(got.ServiceContexts, FTClientContextID); !ok || string(data) != "client-7" {
		t.Errorf("FT context = %q, %v", data, ok)
	}
	ar := cdr.NewReader(got.Args, got.ArgsOrder)
	if s := ar.ReadString(); s != "buy" {
		t.Errorf("arg string = %q", s)
	}
	if n := ar.ReadULong(); n != 100 {
		t.Errorf("arg ulong = %d", n)
	}
	if ar.Err() != nil {
		t.Fatalf("arg decode: %v", ar.Err())
	}
}

func TestRequestRoundTripLittleEndian(t *testing.T) {
	req := Request{RequestID: 7, ResponseExpected: false, ObjectKey: []byte{1}, Operation: "ping"}
	msg, err := EncodeRequest(cdr.LittleEndian, req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeRequest(msg)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.RequestID != 7 || got.ResponseExpected || got.Operation != "ping" {
		t.Errorf("got %+v", got)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	res := cdr.NewWriter(cdr.BigEndian)
	res.WriteDouble(99.5)
	rep := Reply{
		RequestID: 42,
		Status:    ReplyNoException,
		Result:    res.Bytes(),
	}
	msg, err := EncodeReply(cdr.BigEndian, rep)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeReply(msg)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.RequestID != 42 || got.Status != ReplyNoException {
		t.Errorf("got %+v", got)
	}
	rr := cdr.NewReader(got.Result, got.ResultOrder)
	if v := rr.ReadDouble(); v != 99.5 || rr.Err() != nil {
		t.Errorf("result = %v, err %v", v, rr.Err())
	}
}

func TestSystemExceptionRoundTrip(t *testing.T) {
	body := SystemExceptionBody(cdr.BigEndian, "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0", 1, 0)
	rep := Reply{RequestID: 9, Status: ReplySystemException, Result: body}
	msg, err := EncodeReply(cdr.BigEndian, rep)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeReply(msg)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	id, minor, completed, err := DecodeSystemException(got.Result, got.ResultOrder)
	if err != nil {
		t.Fatalf("decode exception: %v", err)
	}
	if id != "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0" || minor != 1 || completed != 0 {
		t.Errorf("got %q %d %d", id, minor, completed)
	}
}

func TestCancelAndLocateRoundTrips(t *testing.T) {
	c, err := DecodeCancelRequest(EncodeCancelRequest(cdr.BigEndian, CancelRequest{RequestID: 5}))
	if err != nil || c.RequestID != 5 {
		t.Errorf("cancel: %+v, %v", c, err)
	}
	lr, err := DecodeLocateRequest(EncodeLocateRequest(cdr.LittleEndian, LocateRequest{RequestID: 6, ObjectKey: []byte("k")}))
	if err != nil || lr.RequestID != 6 || string(lr.ObjectKey) != "k" {
		t.Errorf("locate request: %+v, %v", lr, err)
	}
	lp, err := DecodeLocateReply(EncodeLocateReply(cdr.BigEndian, LocateReply{RequestID: 6, Status: LocateObjectHere}))
	if err != nil || lp.Status != LocateObjectHere {
		t.Errorf("locate reply: %+v, %v", lp, err)
	}
}

func TestReadWriteMessageStream(t *testing.T) {
	var buf bytes.Buffer
	req := Request{RequestID: 1, Operation: "op", ObjectKey: []byte("x"), ResponseExpected: true}
	msg, err := EncodeRequest(cdr.BigEndian, req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := WriteMessage(&buf, msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := WriteMessage(&buf, EncodeCloseConnection(cdr.BigEndian)); err != nil {
		t.Fatalf("write close: %v", err)
	}

	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Header.Type != MsgRequest {
		t.Errorf("type = %v", got.Header.Type)
	}
	dec, err := DecodeRequest(got)
	if err != nil || dec.Operation != "op" {
		t.Errorf("decode: %+v, %v", dec, err)
	}
	got, err = ReadMessage(&buf)
	if err != nil || got.Header.Type != MsgCloseConn {
		t.Errorf("close: %+v, %v", got.Header, err)
	}
	if _, err := ReadMessage(&buf); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReadMessageTruncatedBody(t *testing.T) {
	msg, err := EncodeRequest(cdr.BigEndian, Request{RequestID: 1, Operation: "op"})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	wire := Marshal(msg)
	_, err = ReadMessage(bytes.NewReader(wire[:len(wire)-3]))
	if err == nil {
		t.Fatal("expected error for truncated body")
	}
}

func TestMarshalUnmarshal(t *testing.T) {
	msg := EncodeCancelRequest(cdr.LittleEndian, CancelRequest{RequestID: 77})
	wire := Marshal(msg)
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	c, err := DecodeCancelRequest(got)
	if err != nil || c.RequestID != 77 {
		t.Errorf("cancel = %+v, %v", c, err)
	}
}

func TestUnmarshalShortBuffer(t *testing.T) {
	if _, err := Unmarshal([]byte("GIO")); err == nil {
		t.Fatal("expected error")
	}
}

func TestDecodeRequestWrongType(t *testing.T) {
	msg := EncodeCloseConnection(cdr.BigEndian)
	if _, err := DecodeRequest(msg); err == nil {
		t.Fatal("expected type mismatch error")
	}
	if _, err := DecodeReply(msg); err == nil {
		t.Fatal("expected type mismatch error")
	}
}

func TestServiceContextTruncationFailsCleanly(t *testing.T) {
	// Declare 100 service contexts but provide none.
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteULong(100)
	msg := Message{Header: Header{Major: 1, Minor: 0, Order: cdr.BigEndian, Type: MsgRequest}, Body: w.Bytes()}
	if _, err := DecodeRequest(msg); err == nil {
		t.Fatal("expected truncation error")
	}
}

// TestAppendMatchesMarshal pins the in-place encoders to the two-step
// form they replace on the domain's send path, for both byte orders and
// for empty and fragment-sized bodies: the wire format must not move.
func TestAppendMatchesMarshal(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		for _, n := range []int{0, 1, 64 << 10} {
			body := bytes.Repeat([]byte{0x5a}, n)
			req := Request{
				RequestID: 77, ResponseExpected: true, ObjectKey: []byte("group/7"), Operation: "echo",
				Principal: []byte("p"), Args: body, ArgsOrder: order,
				ServiceContexts: []ServiceContext{{ID: FTClientContextID, Data: []byte("client-1")}},
			}
			two, err := EncodeRequest(order, req)
			if err != nil {
				t.Fatal(err)
			}
			checkAppend(t, Marshal(two), func(dst []byte) ([]byte, error) { return AppendRequest(dst, order, req) })
			if got := RequestSizeBound(req); got < HeaderSize+len(two.Body) {
				t.Errorf("RequestSizeBound %d is below the encoded %d", got, HeaderSize+len(two.Body))
			}

			rep := Reply{RequestID: 77, Status: ReplyUserException, Result: body, ResultOrder: order,
				ServiceContexts: []ServiceContext{{ID: 3, Data: []byte("ctx")}}}
			twoRep, err := EncodeReply(order, rep)
			if err != nil {
				t.Fatal(err)
			}
			checkAppend(t, Marshal(twoRep), func(dst []byte) ([]byte, error) { return AppendReply(dst, order, rep) })
			if got := ReplySizeBound(rep); got < HeaderSize+len(twoRep.Body) {
				t.Errorf("ReplySizeBound %d is below the encoded %d", got, HeaderSize+len(twoRep.Body))
			}
		}
	}
}

// TestDecodeRequestBorrowsBody pins the decode side of the datapath's
// copy diet: in every protocol minor the decoded key, principal and
// arguments are cap-clipped windows onto the message body, not copies.
func TestDecodeRequestBorrowsBody(t *testing.T) {
	for _, minor := range []byte{0, 1, 2} {
		args := bytes.Repeat([]byte{0x11}, 4<<10)
		msg, err := EncodeRequestV(cdr.BigEndian, minor, Request{
			RequestID: 9, ResponseExpected: true, ObjectKey: []byte("group/7"), Operation: "echo",
			Principal: []byte("who"), Args: args,
		})
		if err != nil {
			t.Fatal(err)
		}
		req, err := DecodeRequest(msg)
		if err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string][]byte{"ObjectKey": req.ObjectKey, "Principal": req.Principal, "Args": req.Args} {
			if cap(b) != len(b) {
				t.Errorf("1.%d %s: cap %d != len %d", minor, name, cap(b), len(b))
			}
		}
		// The test owns the body and may write to it; a window follows.
		for i := range msg.Body {
			msg.Body[i] ^= 0xff
		}
		if req.Args[0] != 0x11^0xff || req.ObjectKey[0] != 'g'^0xff {
			t.Errorf("1.%d: decoded request does not alias the body: DecodeRequest copied", minor)
		}
		for i := range msg.Body {
			msg.Body[i] ^= 0xff
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = DecodeRequest(msg) }); n > 1 {
			t.Errorf("1.%d: DecodeRequest made %v allocations; only the operation name is due", minor, n)
		}
	}
}

// TestDecodeReplyBorrowsBody is the reply leg's half of the same rule:
// the result is a cap-clipped window onto the body in every minor.
func TestDecodeReplyBorrowsBody(t *testing.T) {
	for _, minor := range []byte{0, 1, 2} {
		msg, err := EncodeReplyV(cdr.BigEndian, minor, Reply{
			RequestID: 9, Status: ReplyNoException, Result: bytes.Repeat([]byte{0x22}, 4<<10),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := DecodeReply(msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Result) != 4<<10 || cap(rep.Result) != len(rep.Result) {
			t.Errorf("1.%d Result: len %d cap %d", minor, len(rep.Result), cap(rep.Result))
		}
		msg.Body[len(msg.Body)-1] ^= 0xff
		if rep.Result[len(rep.Result)-1] != 0x22^0xff {
			t.Errorf("1.%d: decoded reply does not alias the body: DecodeReply copied", minor)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = DecodeReply(msg) }); n != 0 {
			t.Errorf("1.%d: DecodeReply made %v allocations", minor, n)
		}
	}
}

// TestReassemblerAllocatesOnlyBodies: the header scratch lives in the
// Reassembler, so an unfragmented message costs its body and nothing
// else.
func TestReassemblerAllocatesOnlyBodies(t *testing.T) {
	msg, err := EncodeRequest(cdr.BigEndian, Request{RequestID: 1, ObjectKey: []byte("k"), Operation: "op", Args: make([]byte, 256)})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	stream := bytes.NewReader(bytes.Repeat(Marshal(msg), runs+2))
	ra := NewReassembler(stream, 0)
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := ra.Next(); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Next made %v allocations per message, want 1 (the body)", n)
	}
}
