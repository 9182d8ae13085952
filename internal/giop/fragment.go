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
	// Room is how many unwritten bytes Next leaves at the front of each
	// message's Frame, for a layer that conveys the message as it was read
	// to write its own header there. Set it before the first Next.
	Room int
	// Frames, when set, returns an empty region with room for n bytes,
	// carved out of a slab its caller owns, that a message's Frame is
	// read into when it is not fragmented, so that a short message costs
	// no allocation of its own: a caller whose keepers of a Frame let go
	// of it in order or are bounded sets it, like Room, before the first
	// Next. Where it is nil, as for a caller that hands Frames on to code
	// it does not know, each Frame is made on its own.
	Frames func(n int) []byte
	// partial is the in-progress fragmented message, if any: its Frame
	// grows fragment by fragment. refused says it outgrew maxTotal: its
	// Body is then the first bytes alone and the rest is read and dropped.
	partial  *Message
	refused  bool
	maxTotal int
	// hdr is Next's header scratch: a local would escape through
	// io.ReadFull and cost an allocation per message.
	hdr [HeaderSize]byte
	// dropped is what a refused body is read into, made at the first refusal.
	dropped []byte
}

// refusedHead is how much of a refused message's body Next still returns:
// enough for a request header, so that a server can say which request it
// is not going to serve.
const refusedHead = 4 << 10

// NewReassembler wraps r. maxTotal bounds a message's body, reassembled
// or not (0 means MaxMessageSize).
func NewReassembler(r io.Reader, maxTotal int) *Reassembler {
	if maxTotal <= 0 || maxTotal > MaxMessageSize {
		maxTotal = MaxMessageSize
	}
	return &Reassembler{r: r, maxTotal: maxTotal}
}

// Next returns the next complete message. Its Frame is one buffer — Room
// unwritten bytes, the GIOP header as a whole message carries it, the
// body — that nothing else refers to: it is the caller's, a region
// Frames returned, clipped to its length, or one of its own where Frames
// is nil or the message is fragmented.
//
// A message that declares more than maxTotal is refused before its body
// is allocated: the body is read and dropped, and Next returns the header
// and the first bytes of the body, without a Frame, beside ErrTooLarge.
// That is the one error after which the stream is still in step and Next
// may be called again. ErrTooLarge with no message beside it is a header
// that declares more than any GIOP message may have (MaxMessageSize),
// and final like every other error.
func (ra *Reassembler) Next() (Message, error) {
	for {
		if _, err := io.ReadFull(ra.r, ra.hdr[:]); err != nil {
			return Message{}, ra.readErr(err)
		}
		h, err := parseHeader(ra.hdr)
		if err != nil {
			return Message{}, err
		}
		more := ra.hdr[6]&flagMoreFragments != 0
		var msg Message
		switch {
		case h.Type == MsgFragment:
			if ra.partial == nil {
				return Message{}, ErrOrphanFragment
			}
			if err := ra.readFragment(h); err != nil {
				return Message{}, err
			}
			if more {
				continue
			}
			msg, ra.partial = *ra.partial, nil
			if !ra.refused {
				// The frame reads as the whole message: what the first
				// fragment's header said of flags and size is rewritten.
				msg.Header.Size = uint32(len(msg.Body))
				msg.Frame[ra.Room+6] &^= flagMoreFragments
				putSize(msg.Frame[ra.Room:], msg.Header.Size)
			}
		case more && h.Minor < 1:
			return Message{}, errFragmentProtocol
		case ra.partial != nil:
			return Message{}, fmt.Errorf("giop: new fragmented message before the previous completed")
		default:
			if msg, err = ra.readFirst(h); err != nil {
				return Message{}, err
			}
			if more {
				if h.Minor == 2 && len(msg.Body) < 4 {
					return Message{}, fmt.Errorf("giop: fragmented 1.2 message shorter than its request id")
				}
				first := msg // msg itself stays off the heap
				ra.partial = &first
				continue
			}
		}
		if ra.refused {
			ra.refused = false
			return msg, ErrTooLarge
		}
		return msg, nil
	}
}

// readErr is the error of a read that failed: a stream that ends inside a
// fragmented message says so.
func (ra *Reassembler) readErr(err error) error {
	if ra.partial != nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
		return ErrFragmentTooOld
	}
	return err
}

// readFirst reads the body behind a message's own header, into a frame
// Frames returns; or refuses it.
func (ra *Reassembler) readFirst(h Header) (Message, error) {
	if h.Size > uint32(ra.maxTotal) {
		head := make([]byte, min(h.Size, refusedHead))
		if err := ra.readBody(h, head, int64(h.Size)-int64(len(head))); err != nil {
			return Message{}, err
		}
		ra.refused = true
		return Message{Header: h, Body: head}, nil
	}
	frame, n := []byte(nil), ra.Room+HeaderSize+min(int(h.Size), firstRead)
	if ra.Frames != nil {
		frame = ra.Frames(n)
	} else {
		frame = make([]byte, 0, n)
	}
	frame = frame[:ra.Room+HeaderSize]
	copy(frame[ra.Room:], ra.hdr[:])
	frame, err := ra.readOnto(h, frame, int(h.Size))
	if err != nil {
		return Message{}, err
	}
	return Message{Header: h, Body: frame[ra.Room+HeaderSize:], Frame: frame}, nil
}

// firstRead is the most of a body a frame has room for before any of it
// has arrived: a message no longer than that takes one allocation, and a
// header that declares more than it sends costs at most that much.
const firstRead = 64 << 10

// readOnto reads n more body bytes of the message h heads onto the end of
// frame and returns it. The frame grows with the bytes read, never ahead
// of them by more than it already holds (or firstRead), so what a peer
// makes the reader allocate stays in step with what it sends.
func (ra *Reassembler) readOnto(h Header, frame []byte, n int) ([]byte, error) {
	for n > 0 {
		if len(frame) == cap(frame) {
			grown := make([]byte, len(frame), len(frame)+min(n, max(len(frame), firstRead)))
			frame = grown[:copy(grown, frame)]
		}
		at := len(frame)
		chunk := min(n, cap(frame)-at)
		frame = frame[:at+chunk]
		if err := ra.readBody(h, frame[at:], 0); err != nil {
			return nil, err
		}
		n -= chunk
	}
	return frame, nil
}

// readFragment reads a continuation's body in behind the partial
// message's; or, the message refused, reads it and drops it.
func (ra *Reassembler) readFragment(h Header) error {
	p, n := ra.partial, int64(h.Size)
	if p.Header.Minor == 2 {
		// Strip and verify the continuation's request id (read into the
		// header scratch, which is parsed and done with).
		id := ra.hdr[:4]
		if n < 4 {
			return fmt.Errorf("giop: 1.2 fragment shorter than its request id")
		}
		if err := ra.readBody(h, id, 0); err != nil {
			return err
		}
		if string(id) != string(p.Body[:4]) {
			return fmt.Errorf("giop: interleaved fragment for a different request")
		}
		n -= 4
	}
	if !ra.refused && int64(len(p.Body))+n > int64(ra.maxTotal) {
		ra.refused = true
		p.Body, p.Frame = p.Body[:min(len(p.Body), refusedHead)], nil
	}
	if ra.refused {
		return ra.readBody(h, nil, n)
	}
	frame, err := ra.readOnto(h, p.Frame, int(n))
	if err != nil {
		return err
	}
	p.Frame, p.Body = frame, frame[ra.Room+HeaderSize:]
	return nil
}

// readBody reads into keep, and then reads and drops drop bytes more, of
// the body of the message h heads.
func (ra *Reassembler) readBody(h Header, keep []byte, drop int64) error {
	_, err := io.ReadFull(ra.r, keep)
	for err == nil && drop > 0 {
		if ra.dropped == nil {
			ra.dropped = make([]byte, refusedHead)
		}
		n := min(drop, refusedHead)
		_, err = io.ReadFull(ra.r, ra.dropped[:n])
		drop -= n
	}
	if err = ra.readErr(err); err == nil || err == ErrFragmentTooOld {
		return err
	}
	return fmt.Errorf("giop: reading %v body: %w", h.Type, err)
}
