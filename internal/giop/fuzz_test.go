package giop

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"eternalgw/internal/cdr"
)

// FuzzUnmarshal feeds arbitrary bytes through the framing and every body
// decoder: none may panic or over-read.
func FuzzUnmarshal(f *testing.F) {
	// Seed with real messages of each version and kind.
	req10, _ := EncodeRequest(cdr.BigEndian, Request{RequestID: 1, ResponseExpected: true, ObjectKey: []byte("k"), Operation: "op", Args: []byte{1, 2, 3}})
	req12, _ := EncodeRequestV(cdr.LittleEndian, 2, Request{RequestID: 2, ObjectKey: []byte("k"), Operation: "op"})
	rep, _ := EncodeReplyV(cdr.BigEndian, 0, Reply{RequestID: 1, Status: ReplyNoException, Result: []byte{9}})
	f.Add(Marshal(req10))
	f.Add(Marshal(req12))
	f.Add(Marshal(rep))
	f.Add(Marshal(EncodeCancelRequest(cdr.BigEndian, CancelRequest{RequestID: 3})))
	f.Add([]byte("GIOP"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		if err != nil {
			return
		}
		_, _ = DecodeRequest(msg)
		_, _ = DecodeReply(msg)
		_, _ = DecodeCancelRequest(msg)
		_, _ = DecodeLocateRequest(msg)
		_, _ = DecodeLocateReply(msg)
	})
}

// FuzzDecodeRequest targets the request body decoders directly: a
// valid frame header with an arbitrary body, across every protocol
// minor and both byte orders, so the fuzzer spends its budget inside
// decodeRequest* instead of bouncing off the framing checks. Any decode
// that succeeds must survive a re-encode/re-decode round trip with every
// field intact — the property the gateway's forwarding path (decode,
// rewrite object key, re-encode) depends on — and neither the intern
// table nor the borrowed contexts may change a value: the operation is
// the name the wire holds, and each context's data lies in the body.
func FuzzDecodeRequest(f *testing.F) {
	for _, minor := range []byte{0, 1, 2} {
		req, _ := EncodeRequestV(cdr.BigEndian, minor, Request{
			RequestID: 5, ResponseExpected: true, ObjectKey: []byte("group/7"),
			Operation: "transfer", Args: []byte{1, 2, 3, 4},
			ServiceContexts: []ServiceContext{{ID: 9, Data: []byte("ctx")}},
		})
		f.Add(minor, false, req.Body)
		// As the domain conveys it: in the client's version and byte order.
		little, _ := EncodeRequestV(cdr.LittleEndian, minor, Request{
			RequestID: 6, ResponseExpected: true, ObjectKey: []byte("bench/register"),
			Operation: "echo", Args: []byte{0, 0, 0, 2, 7, 7},
			ServiceContexts: []ServiceContext{{ID: FTClientContextID, Data: []byte("client-7")}},
		})
		f.Add(minor, true, little.Body)
		// A replicated caller's forward, and one whose FT_O context is a
		// byte short: both decode, and the gateway refuses the second.
		short, _ := EncodeRequestV(cdr.BigEndian, minor, Request{
			RequestID: 7, ResponseExpected: true, ObjectKey: []byte("bridge/to-ny"),
			Operation: "add", Args: []byte{0, 0, 0, 0, 0, 0, 0, 10},
			ServiceContexts: []ServiceContext{
				{ID: FTClientContextID, Data: []byte("la-bridge")},
				{ID: FTOperationContextID, Data: make([]byte, 11)},
			},
		})
		f.Add(minor, false, short.Body)
		forward, _ := EncodeRequestV(cdr.LittleEndian, minor, Request{
			RequestID: 8, ResponseExpected: true, ObjectKey: []byte("bridge/to-ny"), Operation: "add",
			ServiceContexts: []ServiceContext{{ID: FTClientContextID, Data: []byte("la-bridge")}, OperationContext(41, 1)},
		})
		f.Add(minor, true, forward.Body)
	}
	f.Add(byte(0), true, []byte{})
	f.Add(byte(2), true, []byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, minor byte, little bool, body []byte) {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		msg := Message{Header: Header{Major: 1, Minor: minor % 3, Order: order, Type: MsgRequest}, Body: body}
		req, err := DecodeRequest(msg)
		if err != nil {
			return
		}
		if wire := wireOperation(msg); req.Operation != wire {
			t.Fatalf("Operation %q, the wire holds %q", req.Operation, wire)
		}
		checkContextsInside(t, req.ServiceContexts, body)
		// An FT_O context reads as an operation identifier exactly when it
		// is 12 octets, and is then the bytes OperationContext builds.
		if data, ok := ContextByID(req.ServiceContexts, FTOperationContextID); ok {
			ts, seq, err := DecodeOperationContext(data)
			if (err == nil) != (len(data) == 12) {
				t.Fatalf("FT_O of %d octets: err %v", len(data), err)
			}
			if err == nil && !bytes.Equal(OperationContext(ts, seq).Data, data) {
				t.Fatalf("FT_O %x reads as (%d, %d), which encodes differently", data, ts, seq)
			}
		}
		re, err := EncodeRequestV(order, msg.Header.Minor, req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		back, err := DecodeRequest(re)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if back.RequestID != req.RequestID || back.ResponseExpected != req.ResponseExpected ||
			back.Operation != req.Operation || back.ArgsOrder != req.ArgsOrder ||
			!bytes.Equal(back.ObjectKey, req.ObjectKey) || !bytes.Equal(back.Principal, req.Principal) ||
			!bytes.Equal(back.Args, req.Args) || !sameContexts(back.ServiceContexts, req.ServiceContexts) {
			t.Fatalf("round trip changed a field: %+v != %+v", back, req)
		}
		// What a replicated object invokes another with is framed as GIOP
		// 1.0: built in place it must be the bytes the two-step form gives.
		two, err := EncodeRequest(order, req)
		if err != nil {
			t.Fatal(err)
		}
		checkAppend(t, Marshal(two), func(dst []byte) ([]byte, error) { return AppendRequest(dst, order, req) })
		// And what a client gathers — head, then arguments — is the
		// re-encoded request whole.
		checkAppend(t, Marshal(re), func(dst []byte) ([]byte, error) {
			head, err := AppendRequestHead(dst, order, msg.Header.Minor, req)
			return append(head, req.Args...), err
		})
	})
}

// wireOperation reads the operation name msg holds as a string of its
// own, by the request layout alone: the fields ahead of it are skipped,
// not decoded.
func wireOperation(msg Message) string {
	r := cdr.NewReader(msg.Body, msg.Header.Order)
	if msg.Header.Minor == 2 {
		r.ReadULong()   // request id
		r.ReadOctets(4) // response flags, reserved
		r.ReadUShort()  // target disposition
	} else {
		for n := r.ReadULong(); n > 0 && r.Err() == nil; n-- {
			r.ReadULong()
			r.ReadOctetSeq()
		}
		r.ReadULong() // request id
		r.ReadOctet() // response expected
		if msg.Header.Minor == 1 {
			r.ReadOctets(3) // reserved
		}
	}
	r.ReadOctetSeq() // object key
	return r.ReadString()
}

// checkContextsInside fails unless each context's data is a cap-clipped
// view into body.
func checkContextsInside(t *testing.T, list []ServiceContext, body []byte) {
	t.Helper()
	for i, sc := range list {
		if len(sc.Data) == 0 {
			continue
		}
		inside := false
		for at := range body {
			if &body[at] == &sc.Data[0] {
				inside = at+len(sc.Data) <= len(body)
				break
			}
		}
		if !inside || cap(sc.Data) != len(sc.Data) {
			t.Fatalf("context %d's %d data bytes (cap %d) are not a view into the body", i, len(sc.Data), cap(sc.Data))
		}
	}
}

func sameContexts(a, b []ServiceContext) bool {
	return slices.EqualFunc(a, b, func(x, y ServiceContext) bool {
		return x.ID == y.ID && bytes.Equal(x.Data, y.Data)
	})
}

// checkAppend holds an in-place encoder to its reference: behind any
// prefix it appends exactly want, alignment being relative to where the
// message starts, and leaves the prefix alone.
func checkAppend(t *testing.T, want []byte, appendTo func(dst []byte) ([]byte, error)) {
	t.Helper()
	for _, prefix := range []string{"", "abc", "0123456789012345678901234567890123456789"} {
		got, err := appendTo([]byte(prefix))
		if err != nil {
			t.Fatalf("prefix %d: %v", len(prefix), err)
		}
		if string(got[:len(prefix)]) != prefix || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("prefix %d: appended form differs from Marshal's (%d vs %d bytes)", len(prefix), len(got)-len(prefix), len(want))
		}
	}
}

// FuzzDecodeReply is FuzzDecodeRequest for the reply decoders: a reply
// that decodes re-encodes to the same fields, its contexts borrowed.
func FuzzDecodeReply(f *testing.F) {
	for _, minor := range []byte{0, 1, 2} {
		rep, _ := EncodeReplyV(cdr.BigEndian, minor, Reply{
			RequestID: 5, Status: ReplyNoException, Result: []byte{9, 9},
			ServiceContexts: []ServiceContext{{ID: 1, Data: []byte("x")}},
		})
		f.Add(minor, false, rep.Body)
	}
	f.Add(byte(0), true, []byte{})
	f.Add(byte(2), true, []byte{0, 0, 0, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, minor byte, little bool, body []byte) {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		msg := Message{Header: Header{Major: 1, Minor: minor % 3, Order: order, Type: MsgReply}, Body: body}
		rep, err := DecodeReply(msg)
		if err != nil {
			return
		}
		checkContextsInside(t, rep.ServiceContexts, body)
		re, err := EncodeReplyV(order, msg.Header.Minor, rep)
		if err != nil {
			t.Fatalf("decoded reply does not re-encode: %v", err)
		}
		back, err := DecodeReply(re)
		if err != nil {
			t.Fatalf("re-encoded reply does not decode: %v", err)
		}
		if back.RequestID != rep.RequestID || back.Status != rep.Status || back.ResultOrder != rep.ResultOrder ||
			!bytes.Equal(back.Result, rep.Result) || !sameContexts(back.ServiceContexts, rep.ServiceContexts) {
			t.Fatalf("round trip changed a field: %+v != %+v", back, rep)
		}
		two, err := EncodeReplyV(order, 0, rep)
		if err != nil {
			t.Fatal(err)
		}
		checkAppend(t, Marshal(two), func(dst []byte) ([]byte, error) { return AppendReply(dst, order, rep) })
	})
}

// FuzzReassembler feeds arbitrary byte streams through the fragment
// reassembler.
func FuzzReassembler(f *testing.F) {
	big, _ := EncodeRequestV(cdr.BigEndian, 2, Request{RequestID: 7, ObjectKey: []byte("k"), Operation: "op", Args: make([]byte, 4096)})
	var fragged []byte
	{
		buf := &sliceWriter{}
		_ = WriteMessageFragmented(buf, big, 512)
		fragged = buf.b
	}
	f.Add(fragged)
	f.Add(Marshal(big))
	f.Add([]byte{'G', 'I', 'O', 'P', 1, 2, 2, 7, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		ra := NewReassembler(&sliceReader{b: data}, 1<<20)
		for i := 0; i < 64; i++ {
			if _, err := ra.Next(); err != nil {
				return
			}
		}
	})
}

type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

type sliceReader struct {
	b   []byte
	pos int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.pos:])
	r.pos += n
	return n, nil
}
