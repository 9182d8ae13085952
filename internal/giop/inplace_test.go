package giop

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"

	"eternalgw/internal/cdr"
)

// TestWireFormPinned holds every request and reply encoder to the bytes
// the encoders of PR 23 gave (length and CRC-32 of Marshal's output,
// computed on that tree): the encoders have since become one each, built
// on AppendRequestHead and OpenReply/SealReply, so comparing them with
// one another proves nothing any more.
func TestWireFormPinned(t *testing.T) {
	for _, pin := range []struct {
		minor    byte
		order    cdr.ByteOrder
		n        int
		reqLen   int
		reqCRC   uint32
		replyLen int
		replyCRC uint32
	}{
		{0, 0, 0, 76, 0x710d6505, 36, 0x465799c0},
		{0, 0, 5, 81, 0xd0d49b1d, 41, 0xe6d1ee55},
		{0, 1, 0, 76, 0x191615a3, 36, 0x4c85d114},
		{0, 1, 5, 81, 0x804b03bb, 41, 0x903df2dd},
		{1, 0, 0, 76, 0xab34bbed, 36, 0x48b07111},
		{1, 0, 5, 81, 0x5e962a23, 41, 0x73a13ac0},
		{1, 1, 0, 76, 0xc32fcb4b, 36, 0x426239c5},
		{1, 1, 5, 81, 0x0e09b285, 41, 0x054d2648},
		{2, 0, 0, 72, 0xd0d4d0f9, 35, 0xb901a5a3},
		{2, 0, 5, 81, 0x37c7db1e, 41, 0xaf9448cd},
		{2, 1, 0, 72, 0x1b307512, 35, 0x4f67f7c7},
		{2, 1, 5, 81, 0xc1cd3ae0, 41, 0x909146b9},
	} {
		req := Request{RequestID: 0x01020304, ResponseExpected: true, ObjectKey: []byte("group/7"), Operation: "transfer",
			Args: make([]byte, pin.n), ServiceContexts: []ServiceContext{{ID: FTClientContextID, Data: []byte("client-7")}}}
		if pin.minor < 2 {
			req.Principal = []byte("me")
		}
		for i := range req.Args {
			req.Args[i] = byte(0xa0 + i)
		}
		rep := Reply{RequestID: 0x01020304, Status: ReplyUserException, Result: req.Args, ServiceContexts: []ServiceContext{{ID: 3, Data: []byte("ctx")}}}
		qm, err := EncodeRequestV(pin.order, pin.minor, req)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := EncodeReplyV(pin.order, pin.minor, rep)
		if err != nil {
			t.Fatal(err)
		}
		if q := Marshal(qm); len(q) != pin.reqLen || crc32.ChecksumIEEE(q) != pin.reqCRC {
			t.Errorf("1.%d order %d args %d: request is %d bytes %x, pinned %d bytes with CRC %#08x", pin.minor, pin.order, pin.n, len(q), q, pin.reqLen, pin.reqCRC)
		}
		if p := Marshal(pm); len(p) != pin.replyLen || crc32.ChecksumIEEE(p) != pin.replyCRC {
			t.Errorf("1.%d order %d result %d: reply is %d bytes %x, pinned %d bytes with CRC %#08x", pin.minor, pin.order, pin.n, len(p), p, pin.replyLen, pin.replyCRC)
		}
	}
}

// TestRequestHeadThenArgsIsTheFramedRequest pins what the client's
// gathered write puts on the wire: AppendRequestHead's bytes followed by
// the arguments are what WriteMessage writes of EncodeRequestV's message,
// behind whatever the destination held — and the arguments are not read.
func TestRequestHeadThenArgsIsTheFramedRequest(t *testing.T) {
	for _, minor := range []byte{0, 1, 2} {
		for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
			for _, ctx := range [][]ServiceContext{nil, {{ID: FTClientContextID, Data: []byte("client-7")}}} {
				for _, n := range []int{0, 5, 64 << 10} {
					req := Request{RequestID: 77, ResponseExpected: true, ObjectKey: []byte("k/1"), Operation: "echo",
						Args: bytes.Repeat([]byte{0x5a}, n), ServiceContexts: ctx}
					msg, err := EncodeRequestV(order, minor, req)
					if err != nil {
						t.Fatal(err)
					}
					want := Marshal(msg)
					head, err := AppendRequestHead([]byte("kept"), order, minor, req)
					if err != nil {
						t.Fatal(err)
					}
					if got := append(head[4:len(head):len(head)], req.Args...); string(head[:4]) != "kept" || !bytes.Equal(got, want) {
						t.Errorf("1.%d order %d contexts %d args %d: head and arguments differ from the framed request (%d vs %d bytes)",
							minor, order, len(ctx), n, len(got), len(want))
					}
					back, err := DecodeRequest(msg)
					if err != nil || back.RequestID != 77 || back.Operation != "echo" || !bytes.Equal(back.Args, req.Args) {
						t.Errorf("1.%d order %d: the request does not decode back: %+v, %v", minor, order, back, err)
					}
				}
			}
		}
	}
	if _, err := AppendRequestHead(nil, cdr.BigEndian, 3, Request{}); !errors.Is(err, ErrBadVersion) {
		t.Errorf("minor 3: err = %v, want ErrBadVersion", err)
	}
	if _, err := AppendRequestHead(nil, cdr.BigEndian, 0, Request{Args: make([]byte, MaxMessageSize)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized request: err = %v, want ErrTooLarge", err)
	}
}

// TestReplyBuiltInPlaceIsTheFramedReply: a reply opened ahead of its
// result, the result written behind the head through a writer that knows
// nothing of it, and sealed with the outcome is byte for byte
// EncodeReplyV's — in every version and byte order, with and without
// service contexts, for an empty, a small and a large result, and for a
// result given up half way and replaced (a servant error).
func TestReplyBuiltInPlaceIsTheFramedReply(t *testing.T) {
	for _, minor := range []byte{0, 1, 2} {
		for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
			for _, ctx := range [][]ServiceContext{nil, {{ID: 3, Data: []byte("ctx")}}} {
				for _, n := range []int{0, 5, 64, 64 << 10} {
					for _, status := range []ReplyStatus{ReplyNoException, ReplyUserException, ReplySystemException} {
						result := bytes.Repeat([]byte{0x5a}, n)
						rep := Reply{RequestID: 77, ServiceContexts: ctx}
						head, err := OpenReply([]byte("kept"), order, minor, rep)
						if err != nil {
							t.Fatal(err)
						}
						w := cdr.NewWriterOn(head, order)
						if status == ReplySystemException {
							// Half a result, then the error: the result's
							// room is given back and the exception written there.
							w.WriteOctets(bytes.Repeat([]byte{0xee}, n/2+3))
							w = cdr.NewWriterOn(head, order)
						}
						w.WriteOctets(result)
						rep.Status = status
						got, err := SealReply(w.Bytes(), 4, order, minor, rep)
						if err != nil {
							t.Fatal(err)
						}
						rep.Result = result
						msg, err := EncodeReplyV(order, minor, rep)
						if err != nil {
							t.Fatal(err)
						}
						if want := Marshal(msg); string(got[:4]) != "kept" || !bytes.Equal(got[4:], want) {
							t.Errorf("1.%d order %d contexts %d result %d %v: built in place it differs from the framed reply (%d vs %d bytes)",
								minor, order, len(ctx), n, status, len(got)-4, len(want))
						}
					}
				}
			}
		}
	}
	if _, err := OpenReply(nil, cdr.BigEndian, 3, Reply{}); !errors.Is(err, ErrBadVersion) {
		t.Errorf("minor 3: err = %v, want ErrBadVersion", err)
	}
	head, _ := OpenReply(nil, cdr.BigEndian, 0, Reply{})
	if _, err := SealReply(head[:len(head)-1], 0, cdr.BigEndian, 0, Reply{}); err == nil {
		t.Error("a buffer that ends inside the reply's head was sealed")
	}
}

// TestReassemblerReadsIntoTheFrame: with Room set, a message arrives as
// one buffer — the room, the header a whole message would carry, the body
// — whether it came whole or in fragments; two messages read one after
// the other share nothing.
func TestReassemblerReadsIntoTheFrame(t *testing.T) {
	const room = 57
	for _, minor := range []byte{0, 1, 2} {
		for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
			for _, frag := range []int{0, 2048} {
				if frag > 0 && minor == 0 {
					continue // 1.0 does not fragment
				}
				t.Run(fmt.Sprintf("giop1.%d/order=%d/frag=%d", minor, order, frag), func(t *testing.T) {
					var stream bytes.Buffer
					var sent []Message
					for i := 0; i < 2; i++ {
						msg, err := EncodeRequestV(order, minor, Request{RequestID: uint32(9 + i), ResponseExpected: true, ObjectKey: []byte("k"),
							Operation: "echo", Args: bytes.Repeat([]byte{byte(0xa0 + i)}, 5000)})
						if err != nil {
							t.Fatal(err)
						}
						if err := WriteMessageFragmented(&stream, msg, frag); err != nil {
							t.Fatal(err)
						}
						sent = append(sent, msg)
					}
					if frag > 0 && stream.Len() < 2*(5000+3*HeaderSize) {
						t.Fatalf("the stream of %d bytes was not fragmented", stream.Len())
					}
					ra := NewReassembler(&stream, 0)
					ra.Room = room
					var frames [][]byte
					for i, want := range sent {
						got, err := ra.Next()
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got.Body, want.Body) || got.Header.Size != uint32(len(want.Body)) {
							t.Fatalf("message %d: body of %d bytes (header says %d), sent %d", i, len(got.Body), got.Header.Size, len(want.Body))
						}
						if len(got.Frame) != room+HeaderSize+len(want.Body) || !bytes.Equal(got.Frame[room:], Marshal(want)) {
							t.Fatalf("message %d: the frame behind its room is not the message whole", i)
						}
						if &got.Frame[room+HeaderSize] != &got.Body[0] {
							t.Fatalf("message %d: Body is not a window onto Frame", i)
						}
						frames = append(frames, got.Frame)
					}
					// Writing all over the first frame leaves the second alone.
					for i := range frames[0][:cap(frames[0])] {
						frames[0][:cap(frames[0])][i] = 0
					}
					if !bytes.Equal(frames[1][room:], Marshal(sent[1])) {
						t.Fatal("two messages read one after the other share a buffer")
					}
				})
			}
		}
	}
}

// TestOversizeMessageIsRefusedInStep: a message whose header — or whose
// fragments, as they add up — declares more than the reassembler's bound
// is refused without its body being allocated, Next says which message it
// was, and the next message on the stream is read as if nothing had been.
func TestOversizeMessageIsRefusedInStep(t *testing.T) {
	const bound = 16 << 10
	small, err := EncodeRequestV(cdr.BigEndian, 2, Request{RequestID: 2, ResponseExpected: true, ObjectKey: []byte("k"), Operation: "ops"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		minor       byte
		frag        int
		headAtLeast int
	}{
		{"whole, 1.0", 0, 0, refusedHead},
		{"whole, 1.2", 2, 0, refusedHead},
		{"fragments that add up, 1.1", 1, 4096, refusedHead},
		{"fragments that add up, 1.2", 2, 4096, refusedHead},
		{"a first fragment over the bound, 1.2", 2, 20 << 10, refusedHead},
	} {
		t.Run(c.name, func(t *testing.T) {
			big, err := EncodeRequestV(cdr.BigEndian, c.minor, Request{RequestID: 1, ResponseExpected: true, ObjectKey: []byte("k"),
				Operation: "echo", Args: make([]byte, 1<<20), ServiceContexts: []ServiceContext{{ID: FTClientContextID, Data: []byte("client-7")}}})
			if err != nil {
				t.Fatal(err)
			}
			var stream bytes.Buffer
			if err := WriteMessageFragmented(&stream, big, c.frag); err != nil {
				t.Fatal(err)
			}
			if err := WriteMessage(&stream, small); err != nil {
				t.Fatal(err)
			}
			wire := stream.Bytes()
			var refused Message
			var before, after runtime.MemStats
			ra := NewReassembler(bytes.NewReader(wire), bound)
			runtime.ReadMemStats(&before)
			refused, err = ra.Next()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrTooLarge) {
				t.Fatalf("err = %v, want ErrTooLarge", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 128<<10 { // the fragments it kept up to the bound, the head, the scratch
				t.Errorf("refusing a 1 MiB message allocated %d bytes", got)
			}
			if refused.Frame != nil || len(refused.Body) < c.headAtLeast || len(refused.Body) > bound {
				t.Fatalf("refused message: frame of %d bytes, head of %d", len(refused.Frame), len(refused.Body))
			}
			// The head is the request header: enough to answer.
			req, err := DecodeRequest(refused)
			if err != nil || req.RequestID != 1 || !req.ResponseExpected || req.Operation != "echo" {
				t.Fatalf("the refused message's head decodes as %+v, %v", req, err)
			}
			next, err := ra.Next()
			if err != nil || !bytes.Equal(next.Body, small.Body) {
				t.Fatalf("after the refusal: %v, body of %d bytes", err, len(next.Body))
			}
		})
	}
	// More than any GIOP message may have is not read past.
	hdr := []byte{'G', 'I', 'O', 'P', 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	if msg, err := NewReassembler(bytes.NewReader(hdr), bound).Next(); !errors.Is(err, ErrTooLarge) || msg.Body != nil {
		t.Fatalf("4 GiB declared: %v, body %v", err, msg.Body)
	}
}
