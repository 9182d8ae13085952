package giop

import (
	"errors"
	"fmt"
	"io"
)

// GIOP fragmentation (versions 1.1 and 1.2): a message whose header has
// the "more fragments follow" flag set is continued by Fragment messages
// until one arrives with the flag clear. In 1.2 each fragment body
// begins with the request id of the message it continues; in 1.1 the
// fragment body is a bare continuation (so only one message may be in
// flight per direction). This file implements writing fragmented
// messages and a reassembling reader, which the ORB and the gateway use
// so large invocations cross the wire within bounded buffers.

// MsgFragment is the GIOP 1.1+ Fragment message type.
const MsgFragment MsgType = 7

// flagMoreFragments is bit 1 of the GIOP header flags octet.
const flagMoreFragments = 0x02

// Errors reported by the fragmentation layer.
var (
	ErrOrphanFragment   = errors.New("giop: fragment without a message to continue")
	ErrFragmentTooOld   = errors.New("giop: fragmented message incomplete at connection end")
	errFragmentProtocol = errors.New("giop: fragmentation requires GIOP 1.1 or later")
)

// DefaultFragmentSize is the body-size threshold above which
// WriteMessageFragmented splits a message.
const DefaultFragmentSize = 32 << 10

// WriteMessageFragmented writes msg, splitting bodies larger than
// fragSize (0 means DefaultFragmentSize) into an initial message plus
// Fragment continuations. Messages in GIOP 1.0, and messages whose type
// cannot be fragmented, are written whole regardless of size.
func WriteMessageFragmented(w io.Writer, msg Message, fragSize int) error {
	if fragSize <= 0 {
		fragSize = DefaultFragmentSize
	}
	canFragment := msg.Header.Minor >= 1 &&
		(msg.Header.Type == MsgRequest || msg.Header.Type == MsgReply)
	if !canFragment || len(msg.Body) <= fragSize {
		return WriteMessage(w, msg)
	}

	// For 1.2 every continuation carries the request id, which the
	// initial message's body begins with (both Request and Reply headers
	// start with it in 1.2 — and 1.1 requests start with the service
	// context list, so 1.1 continuations are bare).
	var reqID []byte
	if msg.Header.Minor == 2 {
		if len(msg.Body) < 4 {
			return fmt.Errorf("giop: fragment: body too short for a 1.2 header")
		}
		reqID = msg.Body[:4]
	}

	first := msg
	first.Body = msg.Body[:fragSize]
	if err := writeWithFlags(w, first, true); err != nil {
		return err
	}

	// One pooled buffer carries every continuation frame: header, request
	// id (1.2) and chunk are appended into it and written in one call, so
	// fragmenting a large body costs no per-fragment allocation.
	bp := wireBufs.Get().(*[]byte)
	defer putWireBuf(bp)
	fh := Header{
		Major: msg.Header.Major,
		Minor: msg.Header.Minor,
		Order: msg.Header.Order,
		Type:  MsgFragment,
	}
	rest := msg.Body[fragSize:]
	for len(rest) > 0 {
		n := len(rest)
		more := false
		if n > fragSize {
			n = fragSize
			more = true
		}
		fh.Size = uint32(len(reqID) + n)
		buf := appendHeader((*bp)[:0], fh)
		if more {
			buf[6] |= flagMoreFragments
		}
		buf = append(buf, reqID...)
		buf = append(buf, rest[:n]...)
		*bp = buf
		if _, err := w.Write(buf); err != nil {
			return err
		}
		rest = rest[n:]
	}
	return nil
}

// writeWithFlags writes one framed message with the more-fragments flag,
// as a single Write from a pooled buffer.
func writeWithFlags(w io.Writer, msg Message, more bool) error {
	if len(msg.Body) > MaxMessageSize {
		return ErrTooLarge
	}
	msg.Header.Size = uint32(len(msg.Body))
	bp := wireBufs.Get().(*[]byte)
	defer putWireBuf(bp)
	buf := appendHeader((*bp)[:0], msg.Header)
	if more {
		buf[6] |= flagMoreFragments
	}
	buf = append(buf, msg.Body...)
	*bp = buf
	_, err := w.Write(buf)
	return err
}

// Reassembler reads framed messages from a stream, transparently
// reassembling fragmented ones. It is not safe for concurrent use; wrap
// one around each connection's read side.
type Reassembler struct {
	r io.Reader
	// partial is the in-progress fragmented message, if any.
	partial  *Message
	pendID   []byte // 1.2: the request id continuations must match
	maxTotal int
	// hdr is Next's header scratch: a local would escape through
	// io.ReadFull and cost an allocation per message.
	hdr [HeaderSize]byte
}

// NewReassembler wraps r. maxTotal bounds a reassembled message's body
// (0 means MaxMessageSize).
func NewReassembler(r io.Reader, maxTotal int) *Reassembler {
	if maxTotal <= 0 || maxTotal > MaxMessageSize {
		maxTotal = MaxMessageSize
	}
	return &Reassembler{r: r, maxTotal: maxTotal}
}

// Next returns the next complete message.
func (ra *Reassembler) Next() (Message, error) {
	for {
		hdr := &ra.hdr
		if _, err := io.ReadFull(ra.r, hdr[:]); err != nil {
			if ra.partial != nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
				return Message{}, ErrFragmentTooOld
			}
			return Message{}, err
		}
		h, err := parseHeader(*hdr)
		if err != nil {
			return Message{}, err
		}
		more := hdr[6]&flagMoreFragments != 0
		body := make([]byte, h.Size)
		if _, err := io.ReadFull(ra.r, body); err != nil {
			if ra.partial != nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
				return Message{}, ErrFragmentTooOld
			}
			return Message{}, fmt.Errorf("giop: reading %v body: %w", h.Type, err)
		}

		switch {
		case h.Type == MsgFragment:
			if ra.partial == nil {
				return Message{}, ErrOrphanFragment
			}
			if ra.partial.Header.Minor == 2 {
				// Strip and verify the continuation's request id.
				if len(body) < 4 {
					return Message{}, fmt.Errorf("giop: 1.2 fragment shorter than its request id")
				}
				if string(body[:4]) != string(ra.pendID) {
					return Message{}, fmt.Errorf("giop: interleaved fragment for a different request")
				}
				body = body[4:]
			}
			if len(ra.partial.Body)+len(body) > ra.maxTotal {
				return Message{}, ErrTooLarge
			}
			ra.partial.Body = append(ra.partial.Body, body...)
			if more {
				continue
			}
			msg := *ra.partial
			ra.partial = nil
			ra.pendID = nil
			return msg, nil

		case more:
			if h.Minor < 1 {
				return Message{}, errFragmentProtocol
			}
			if ra.partial != nil {
				return Message{}, fmt.Errorf("giop: new fragmented message before the previous completed")
			}
			msg := Message{Header: h, Body: body}
			ra.partial = &msg
			if h.Minor == 2 {
				if len(body) < 4 {
					return Message{}, fmt.Errorf("giop: fragmented 1.2 message shorter than its request id")
				}
				ra.pendID = append([]byte(nil), body[:4]...)
			}
			continue

		default:
			return Message{Header: h, Body: body}, nil
		}
	}
}
