package giop

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/quick"

	"eternalgw/internal/cdr"
	"eternalgw/internal/slab"
)

func big12Request(t *testing.T, size int) Message {
	t.Helper()
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteOctetSeq(bytes.Repeat([]byte{0xAB}, size))
	msg, err := EncodeRequestV(cdr.BigEndian, 2, Request{
		RequestID:        77,
		ResponseExpected: true,
		ObjectKey:        []byte("big/object"),
		Operation:        "upload",
		Args:             w.Bytes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func TestFragmentedRequestRoundTrip(t *testing.T) {
	msg := big12Request(t, 10_000)
	var buf bytes.Buffer
	if err := WriteMessageFragmented(&buf, msg, 1024); err != nil {
		t.Fatal(err)
	}
	// The stream holds multiple frames, not one.
	if buf.Len() <= len(msg.Body)+HeaderSize {
		t.Fatalf("stream length %d suggests no fragmentation", buf.Len())
	}
	ra := NewReassembler(&buf, 0)
	got, err := ra.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Type != MsgRequest || !bytes.Equal(got.Body, msg.Body) {
		t.Fatalf("reassembled message differs: %d vs %d bytes", len(got.Body), len(msg.Body))
	}
	req, err := DecodeRequest(got)
	if err != nil {
		t.Fatal(err)
	}
	if req.RequestID != 77 || req.Operation != "upload" {
		t.Fatalf("req = %+v", req)
	}
	if _, err := ra.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestSmallMessagesPassThroughUnfragmented(t *testing.T) {
	msg := big12Request(t, 16)
	var buf bytes.Buffer
	if err := WriteMessageFragmented(&buf, msg, 1024); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != HeaderSize+len(msg.Body) {
		t.Fatalf("small message was fragmented: %d bytes", buf.Len())
	}
	ra := NewReassembler(&buf, 0)
	got, err := ra.Next()
	if err != nil || !bytes.Equal(got.Body, msg.Body) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestGIOP10NeverFragments(t *testing.T) {
	req := Request{RequestID: 1, Operation: "op", ObjectKey: []byte("k"), Args: bytes.Repeat([]byte{1}, 8192)}
	msg, err := EncodeRequest(cdr.BigEndian, req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMessageFragmented(&buf, msg, 1024); err != nil {
		t.Fatal(err)
	}
	// One frame: header + full body.
	if buf.Len() != HeaderSize+len(msg.Body) {
		t.Fatalf("1.0 message was fragmented")
	}
}

func TestReassemblerInterleavedMessagesBetweenReads(t *testing.T) {
	// A complete unfragmented message following a fragmented one.
	big := big12Request(t, 5000)
	small := EncodeCancelRequest(cdr.BigEndian, CancelRequest{RequestID: 5})
	small.Header.Minor = 2
	var buf bytes.Buffer
	if err := WriteMessageFragmented(&buf, big, 512); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(&buf, small); err != nil {
		t.Fatal(err)
	}
	ra := NewReassembler(&buf, 0)
	first, err := ra.Next()
	if err != nil || first.Header.Type != MsgRequest {
		t.Fatalf("first = %+v, %v", first.Header, err)
	}
	second, err := ra.Next()
	if err != nil || second.Header.Type != MsgCancelRequest {
		t.Fatalf("second = %+v, %v", second.Header, err)
	}
}

func TestOrphanFragmentRejected(t *testing.T) {
	frag := Message{Header: Header{Major: 1, Minor: 2, Order: cdr.BigEndian, Type: MsgFragment}, Body: []byte{0, 0, 0, 1, 9}}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, frag); err != nil {
		t.Fatal(err)
	}
	ra := NewReassembler(&buf, 0)
	if _, err := ra.Next(); !errors.Is(err, ErrOrphanFragment) {
		t.Fatalf("err = %v, want ErrOrphanFragment", err)
	}
}

func TestTruncatedFragmentStreamReported(t *testing.T) {
	msg := big12Request(t, 5000)
	var buf bytes.Buffer
	if err := WriteMessageFragmented(&buf, msg, 512); err != nil {
		t.Fatal(err)
	}
	// Drop the final fragment frame.
	stream := buf.Bytes()
	truncated := stream[:len(stream)-(HeaderSize+512+4)]
	ra := NewReassembler(bytes.NewReader(truncated), 0)
	_, err := ra.Next()
	if !errors.Is(err, ErrFragmentTooOld) {
		t.Fatalf("err = %v, want ErrFragmentTooOld", err)
	}
}

func TestReassemblyBoundEnforced(t *testing.T) {
	msg := big12Request(t, 100_000)
	var buf bytes.Buffer
	if err := WriteMessageFragmented(&buf, msg, 4096); err != nil {
		t.Fatal(err)
	}
	ra := NewReassembler(&buf, 16<<10)
	if _, err := ra.Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestQuickFragmentRoundTrip(t *testing.T) {
	f := func(payload []byte, fragExp uint8) bool {
		fragSize := 64 << (fragExp % 6) // 64..2048
		w := cdr.NewWriter(cdr.BigEndian)
		w.WriteOctetSeq(payload)
		msg, err := EncodeRequestV(cdr.BigEndian, 2, Request{
			RequestID: 9,
			ObjectKey: []byte("k"),
			Operation: "op",
			Args:      w.Bytes(),
		})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteMessageFragmented(&buf, msg, fragSize); err != nil {
			return false
		}
		got, err := NewReassembler(&buf, 0).Next()
		if err != nil {
			return false
		}
		return bytes.Equal(got.Body, msg.Body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAllocationFollowsTheBytesRead: a header that declares a body and
// then sends none of it costs what arrived, not what it declared — a
// message's, or a 1.2 fragment's behind its request id — while a message that arrives whole still
// takes one allocation, and one longer than the first read still
// reassembles.
func TestAllocationFollowsTheBytesRead(t *testing.T) {
	const claimed = MaxMessageSize - 64<<10
	first := big12Request(t, 100)
	var fragmented bytes.Buffer
	if err := writeWithFlags(&fragmented, first, true); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		wire []byte
	}{
		{"a message's header", appendHeader(nil, Header{Major: 1, Minor: 2, Order: cdr.BigEndian, Type: MsgRequest, Size: claimed})},
		{"a fragment's header", append(appendHeader(fragmented.Bytes(), Header{Major: 1, Minor: 2, Order: cdr.BigEndian, Type: MsgFragment, Size: claimed}), first.Body[:4]...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			ra := NewReassembler(bytes.NewReader(c.wire), 0)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ra.Next()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("a body cut short read as a message")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
				t.Errorf("a header claiming %d bytes and then nothing allocated %d bytes", claimed, got)
			}
		})
	}

	whole := big12Request(t, 1<<10)
	var wire bytes.Buffer
	if err := WriteMessage(&wire, whole); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	ra := NewReassembler(rd, 0)
	if n := testing.AllocsPerRun(50, func() {
		rd.Reset(wire.Bytes())
		if _, err := ra.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("reading a 1 KiB message took %v allocations, want 1", n)
	}

	long := big12Request(t, 5*firstRead/2)
	wire.Reset()
	if err := WriteMessage(&wire, long); err != nil {
		t.Fatal(err)
	}
	got, err := NewReassembler(&wire, 0).Next()
	if err != nil || !bytes.Equal(got.Body, long.Body) {
		t.Fatalf("a %d-byte message read back as %d bytes, %v", len(long.Body), len(got.Body), err)
	}
}

// TestCarvedFramesAllocateNothing: a Reassembler whose Frames carves out
// of a slab, as the gateway's does, reads each short message into a region
// of it — Room unwritten bytes, the header, the body, clipped to that
// length — so a message costs its share of a chunk and no allocation of
// its own; a long one the slab makes on its own. With Frames nil, the
// orb's setting, each frame is its own: one allocation. Each run reads a
// batch of messages, so that a share of an allocation per message shows.
func TestCarvedFramesAllocateNothing(t *testing.T) {
	const (
		most  = 0.05
		room  = 60
		batch = 100
		runs  = 40
	)
	small, err := EncodeRequestV(cdr.BigEndian, 2, Request{RequestID: 7, ResponseExpected: true, ObjectKey: []byte("bench/register"), Operation: "echo", Args: make([]byte, 68)})
	if err != nil {
		t.Fatal(err)
	}
	var one bytes.Buffer
	if err := WriteMessage(&one, small); err != nil {
		t.Fatal(err)
	}
	// perMessage reads batches of the message through a reassembler whose
	// Frames is frames, and returns the allocations per message.
	perMessage := func(frames func(int) []byte) float64 {
		stream := bytes.NewReader(bytes.Repeat(one.Bytes(), (runs+2)*batch))
		ra := NewReassembler(stream, 0)
		ra.Room, ra.Frames = room, frames
		next := func() {
			for range batch {
				msg, err := ra.Next()
				if err != nil {
					t.Fatal(err)
				}
				if len(msg.Frame) != room+one.Len() || cap(msg.Frame) != len(msg.Frame) || !bytes.Equal(msg.Frame[room:], one.Bytes()) {
					t.Fatalf("frame of %d bytes (capacity %d), want Room and the %d-byte message", len(msg.Frame), cap(msg.Frame), one.Len())
				}
			}
		}
		next() // AllocsPerRun's warm-up is the second batch
		return testing.AllocsPerRun(runs, next) / batch
	}
	frames := slab.New[byte](slab.ByteChunk)
	n := perMessage(frames.Carve)
	t.Logf("%.2f allocations per %d-byte frame carved out of a slab", n, room+one.Len())
	if n > most {
		t.Errorf("%.3f allocations per %d-byte frame carved out of a slab, want at most %v", n, room+one.Len(), most)
	}
	if n := perMessage(nil); n != 1 {
		t.Errorf("%.3f allocations per message read with Frames nil, want 1", n)
	}
	// A message longer than a quarter of a chunk is not carved.
	var long bytes.Buffer
	if err := WriteMessage(&long, big12Request(t, 2<<10)); err != nil {
		t.Fatal(err)
	}
	size := long.Len()
	frames = slab.New[byte](slab.ByteChunk)
	ra := NewReassembler(&long, 0)
	ra.Frames = frames.Carve
	if _, err := ra.Next(); err != nil || frames.Chunk() != nil {
		t.Fatalf("a %d-byte message was carved (err %v)", size, err)
	}
}
