package giop

import (
	"bytes"
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
