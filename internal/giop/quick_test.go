package giop

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"

	"eternalgw/internal/cdr"
)

// TestQuickRequestRoundTrip property: arbitrary requests survive
// encode/decode in either byte order.
func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(id uint32, expected bool, key, principal, args []byte, op string, little bool) bool {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		// CDR strings cannot carry NUL bytes; strip them.
		op = sanitize(op)
		msg, err := EncodeRequest(order, Request{
			RequestID:        id,
			ResponseExpected: expected,
			ObjectKey:        key,
			Operation:        op,
			Principal:        principal,
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
			bytes.Equal(got.Principal, principal) &&
			bytes.Equal(got.Args, args)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReplyRoundTrip property: arbitrary replies survive
// encode/decode.
func TestQuickReplyRoundTrip(t *testing.T) {
	f := func(id uint32, status uint8, result []byte, little bool) bool {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		rep := Reply{RequestID: id, Status: ReplyStatus(status % 4), Result: result}
		msg, err := EncodeReplyV(order, 0, rep)
		if err != nil {
			return false
		}
		got, err := DecodeReply(msg)
		if err != nil {
			return false
		}
		return got.RequestID == id && got.Status == rep.Status && bytes.Equal(got.Result, result)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUnmarshalNeverPanics property: arbitrary bytes never panic the
// framing or body decoders.
func TestQuickUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		msg, err := Unmarshal(data)
		if err != nil {
			return true
		}
		// Feed whatever parsed into each body decoder; errors are fine,
		// panics are not.
		_, _ = DecodeRequest(msg)
		_, _ = DecodeReply(msg)
		_, _ = DecodeCancelRequest(msg)
		_, _ = DecodeLocateRequest(msg)
		_, _ = DecodeLocateReply(msg)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMarshalUnmarshalIdentity property: Marshal followed by
// Unmarshal is the identity on framed messages.
func TestQuickMarshalUnmarshalIdentity(t *testing.T) {
	f := func(body []byte, typ uint8, little bool) bool {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		msg := Message{
			Header: Header{Major: 1, Minor: 0, Order: order, Type: MsgType(typ % 7)},
			Body:   body,
		}
		got, err := Unmarshal(Marshal(msg))
		if err != nil {
			return false
		}
		return got.Header.Type == msg.Header.Type &&
			got.Header.Order == order &&
			bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r != 0 {
			out = append(out, r)
		}
	}
	return string(out)
}

// TestHostileCounts overwrites each aligned 4-byte window of requests and
// replies in every GIOP version and byte order — every place a CDR count
// can sit — with a hostile count and decodes them: a count that sizes an
// allocation before its guard allocates from the wire, so the decode may
// allocate at most a constant multiple of the frame.
func TestHostileCounts(t *testing.T) {
	contexts := []ServiceContext{{ID: FTClientContextID, Data: []byte("client-7")}, {ID: 9, Data: []byte{1}}}
	var frames []Message
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		for minor := byte(0); minor <= 2; minor++ {
			req, err := EncodeRequestV(order, minor, Request{ServiceContexts: contexts, RequestID: 7, ResponseExpected: true,
				ObjectKey: []byte("key"), Operation: "echo", Args: []byte("args")})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := EncodeReplyV(order, minor, Reply{ServiceContexts: contexts, RequestID: 7, Result: []byte("result")})
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, req, rep)
		}
	}
	for _, msg := range frames {
		seed := Marshal(msg)
		put := binary.BigEndian.PutUint32
		if msg.Header.Order == cdr.LittleEndian {
			put = binary.LittleEndian.PutUint32
		}
		for at := 12; at+4 <= len(seed); at += 4 {
			data := bytes.Clone(seed)
			put(data[at:], 1<<20)
			n := allocated(func() {
				if m, err := Unmarshal(data); err == nil {
					_, _ = DecodeRequest(m)
					_, _ = DecodeReply(m)
				}
			})
			if n > 64*len(data)+4096 {
				t.Fatalf("GIOP 1.%d %v with a hostile count at %d: a %d-byte frame allocated %d bytes", msg.Header.Minor, msg.Header.Type, at, len(data), n)
			}
		}
	}
}

// allocated returns the fewest bytes fn allocated in three runs: another
// goroutine's allocation can inflate one reading, not all three.
func allocated(fn func()) int {
	least := -1
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if n := int(after.TotalAlloc - before.TotalAlloc); least < 0 || n < least {
			least = n
		}
	}
	return least
}
