package totem

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/memnet"
)

// The encoders as they stood before a datagram could be framed in its
// sender's buffer, kept as the oracle: rings may mix members that frame in
// place with members that do not, so the wire form may not move by a byte.

func oracleRegular(m regularMsg) []byte {
	if len(m.Parts) > 0 {
		w := cdr.NewWriterCap(cdr.BigEndian, 40+len(m.Sender)+len(m.Via)+partsSize(nil, m.Parts))
		w.WriteOctet(kindPacked)
		w.WriteULongLong(m.RingID)
		w.WriteULongLong(m.Seq)
		w.WriteString(string(m.Sender))
		w.WriteULong(uint32(len(m.Parts)))
		oracleParts(w, nil, m.Parts)
		if m.Via != "" {
			w.WriteString(string(m.Via))
		}
		return w.Bytes()
	}
	w := cdr.NewWriterCap(cdr.BigEndian, 48+len(m.Sender)+len(m.Via)+len(m.Payload))
	w.WriteOctet(kindRegular)
	w.WriteULongLong(m.RingID)
	w.WriteULongLong(m.Seq)
	w.WriteString(string(m.Sender))
	w.WriteOctetSeq(m.Payload)
	if m.Via != "" {
		w.WriteString(string(m.Via))
	}
	return w.Bytes()
}

func oracleForward(f forwardMsg) []byte {
	w := cdr.NewWriterCap(cdr.BigEndian, 40+len(f.Sender)+partsSize(f.Payload, f.Parts))
	w.WriteOctet(kindForward)
	w.WriteULongLong(f.RingID)
	w.WriteString(string(f.Sender))
	w.WriteULongLong(f.FwdSeq)
	w.WriteULong(partCount(f.Parts))
	oracleParts(w, f.Payload, f.Parts)
	return w.Bytes()
}

func oracleBatch(b batchMsg) []byte {
	w := cdr.NewWriterCap(cdr.BigEndian, 64+len(b.Leader)+len(b.Origin)+partsSize(b.Payload, b.Parts))
	w.WriteOctet(kindBatch)
	w.WriteULongLong(b.RingID)
	w.WriteULongLong(b.Seq)
	w.WriteString(string(b.Leader))
	w.WriteString(string(b.Origin))
	w.WriteULongLong(b.OriginFwd)
	w.WriteULongLong(b.Stable)
	w.WriteULong(partCount(b.Parts))
	oracleParts(w, b.Payload, b.Parts)
	return w.Bytes()
}

func oracleParts(w *cdr.Writer, payload []byte, parts [][]byte) {
	if len(parts) == 0 {
		w.WriteOctetSeq(payload)
		return
	}
	for _, p := range parts {
		w.WriteOctetSeq(p)
	}
}

// TestFramedInPlaceIsTheEncodersWireForm: for a forward, a full batch and a
// regular message carrying one payload, from members whose ids have length
// 1, 3, 7 and 8 — every padding the id's string can leave in front of the
// 8-byte fields behind it — the datagram framed in the submission's buffer
// is byte for byte the one the copying encoder built before this was
// possible, it is that buffer (the payload was not moved), nothing ahead of
// it in the room was touched, and the decoder reads it back. A pack is
// built by copy as it always was, and is pinned to the same oracle.
func TestFramedInPlaceIsTheEncodersWireForm(t *testing.T) {
	for _, idLen := range []int{1, 3, 7, 8} {
		id := memnet.NodeID(strings.Repeat("n", idLen))
		for _, size := range []int{0, 1, 5, 16 << 10} {
			t.Run(fmt.Sprintf("id=%d/payload=%d", idLen, size), func(t *testing.T) {
				c := NewCore(Config{ID: id, Ordering: OrderingLeader}, time.Unix(0, 0), nil, nil)
				if want := c.hdrLen[kindBatch]; c.room != want || c.hdrLen[kindForward] > want || c.hdrLen[kindRegular] > want {
					t.Fatalf("room %d, headers %v: the batch header is the longest", c.room, c.hdrLen)
				}
				if ring := NewCore(Config{ID: id}, time.Unix(0, 0), nil, nil); ring.room != c.hdrLen[kindRegular] {
					t.Fatalf("a ring that only rotates leaves %d bytes of room for a %d-byte regular header", ring.room, c.hdrLen[kindRegular])
				}
				payload := bytes.Repeat([]byte{0xc3}, size)
				ids := newIDTable([]memnet.NodeID{id})

				// framed returns a fresh submission's buffer and the in-place
				// datagram frame builds in it, checked against the oracle.
				framed := func(kind byte, frame func(payload, in []byte) []byte, oracle []byte) []byte {
					buf := c.framed(payload)
					got := frame(buf[c.room:], c.frameIn(kind, buf))
					if !bytes.Equal(got, oracle) {
						t.Fatalf("kind %d framed in place differs from the encoder of before:\n got %x\nwant %x", kind, got[:min(len(got), 96)], oracle[:min(len(oracle), 96)])
					}
					start := c.room - c.hdrLen[kind]
					if len(got) != len(buf)-start || &got[0] != &buf[start] {
						t.Fatalf("kind %d: the datagram is not the submission's buffer from byte %d on", kind, start)
					}
					if !bytes.Equal(buf[:start], make([]byte, start)) {
						t.Fatalf("kind %d: the room ahead of the %d-byte header was written to", kind, c.hdrLen[kind])
					}
					return got
				}

				fm := forwardMsg{RingID: 9, Sender: id, FwdSeq: 1 << 40, Payload: payload}
				d := framed(kindForward, func(p, in []byte) []byte { fm.Payload = p; return encodeForward(fm, in) }, oracleForward(fm))
				if f, err := decodeForward(decodeFrame(t, d, kindForward), ids); err != nil || f.Sender != id || f.FwdSeq != fm.FwdSeq || f.RingID != 9 || !bytes.Equal(f.Payload, payload) || f.Parts != nil {
					t.Fatalf("forward read back as %+v, %v", f, err)
				}

				bm := batchMsg{RingID: 9, Seq: 77, Leader: id, Origin: id, OriginFwd: 3, Stable: 70, Payload: payload}
				d = framed(kindBatch, func(p, in []byte) []byte { bm.Payload = p; return encodeBatch(bm, in) }, oracleBatch(bm))
				if b, err := decodeBatch(decodeFrame(t, d, kindBatch), ids); err != nil || b.Ref || b.Leader != id || b.Origin != id || b.Seq != 77 || b.OriginFwd != 3 || b.Stable != 70 || !bytes.Equal(b.Payload, payload) {
					t.Fatalf("batch read back as %+v, %v", b, err)
				}

				rm := regularMsg{RingID: 9, Seq: 78, Sender: id, Payload: payload}
				d = framed(kindRegular, func(p, in []byte) []byte { rm.Payload = p; return encodeRegular(rm, in) }, oracleRegular(rm))
				if m, err := decodeRegular(decodeFrame(t, d, kindRegular), ids); err != nil || m.Sender != id || m.Seq != 78 || m.Via != "" || !bytes.Equal(m.Payload, payload) {
					t.Fatalf("regular read back as %+v, %v", m, err)
				}
				if c.framedInPlaceN.Load() != 3 || c.framedByCopyN.Load() != 0 {
					t.Fatalf("counted %d in place and %d by copy, want 3 and 0", c.framedInPlaceN.Load(), c.framedByCopyN.Load())
				}

				// What cannot be framed in place — a pack, a retransmission in
				// another member's name — is the copying encoder's.
				parts := [][]byte{payload, []byte("tail")}
				for _, pair := range [][2][]byte{
					{encodeRegular(regularMsg{RingID: 9, Seq: 79, Sender: id, Parts: parts}, c.frameIn(kindRegular, nil)), oracleRegular(regularMsg{RingID: 9, Seq: 79, Sender: id, Parts: parts})},
					{encodeRegular(regularMsg{RingID: 9, Seq: 78, Sender: id, Via: "other", Payload: payload}, nil), oracleRegular(regularMsg{RingID: 9, Seq: 78, Sender: id, Via: "other", Payload: payload})},
					{encodeForward(forwardMsg{RingID: 9, Sender: id, FwdSeq: 2, Parts: parts}, nil), oracleForward(forwardMsg{RingID: 9, Sender: id, FwdSeq: 2, Parts: parts})},
					{encodeBatch(batchMsg{RingID: 9, Seq: 80, Leader: id, Origin: id, OriginFwd: 2, Parts: parts}, nil), oracleBatch(batchMsg{RingID: 9, Seq: 80, Leader: id, Origin: id, OriginFwd: 2, Parts: parts})},
				} {
					if !bytes.Equal(pair[0], pair[1]) {
						t.Fatalf("kind %d built by copy differs from the encoder of before", pair[0][0])
					}
				}
				if c.framedByCopyN.Load() != 1 {
					t.Fatalf("a pack counted %d times as built by copy", c.framedByCopyN.Load())
				}
			})
		}
	}
}

// TestFramesBuiltElsewhereAreWrittenOnce puts the two buffers the layers
// above now build where totem sends them from under the virtual-time
// harness, whose ledger checksums every datagram when it is broadcast and
// again when the schedule ends: a request as a gateway's reassembler
// reads it — from three fragments — behind the headroom, and a reply
// whose result is written behind its opened head and sealed. Each travels
// in the buffer it was submitted in, its room written once, before the
// first Broadcast, and every core delivers the bytes that were submitted.
func TestFramesBuiltElsewhereAreWrittenOnce(t *testing.T) {
	const above = 40 // what the layer above writes into the room it asks for
	for _, mode := range []OrderingMode{OrderingRing, OrderingLeader} {
		t.Run(fmt.Sprint("ordering=", mode), func(t *testing.T) {
			v := newVnet(t, 4, 9, func(c *Config) { c.Ordering = mode })
			v.settle(time.Second)
			gateway, replica := v.cores[v.ids[3]], v.cores[v.ids[1]]

			req, err := giop.EncodeRequestV(cdr.LittleEndian, 2, giop.Request{RequestID: 7, ResponseExpected: true,
				ObjectKey: []byte("k"), Operation: "echo", Args: bytes.Repeat([]byte{0xa5}, 40<<10)})
			if err != nil {
				t.Fatal(err)
			}
			var wire bytes.Buffer
			if err := giop.WriteMessageFragmented(&wire, req, len(req.Body)/3+1); err != nil {
				t.Fatal(err)
			}
			ra := giop.NewReassembler(&wire, 0)
			ra.Room = gateway.room + above
			read, err := ra.Next()
			if err != nil {
				t.Fatal(err)
			}
			request := read.Frame
			for i := gateway.room; i < ra.Room; i++ {
				request[i] = 0xf7
			}

			rep := giop.Reply{RequestID: 7}
			reply, err := giop.OpenReply(make([]byte, replica.room+above, 256), cdr.LittleEndian, 0, rep)
			if err != nil {
				t.Fatal(err)
			}
			w := cdr.NewWriterOn(reply, cdr.LittleEndian)
			w.WriteOctetSeq(bytes.Repeat([]byte{0x5a}, 40<<10))
			if reply, err = giop.SealReply(w.Bytes(), replica.room+above, cdr.LittleEndian, 0, rep); err != nil {
				t.Fatal(err)
			}

			inPlace := gateway.framedInPlaceN.Load() + replica.framedInPlaceN.Load()
			gateway.Submit(v.now(), [][]byte{request})
			replica.Submit(v.now(), [][]byte{reply})
			v.settle(time.Second)
			if got := gateway.framedInPlaceN.Load() + replica.framedInPlaceN.Load() - inPlace; got != 2 {
				t.Errorf("%d of the two buffers were framed in place", got)
			}
			want := map[memnet.NodeID]uint32{
				gateway.cfg.ID: crc32.ChecksumIEEE(request[gateway.room:]),
				replica.cfg.ID: crc32.ChecksumIEEE(reply[replica.room:]),
			}
			for _, id := range v.ids {
				got := map[memnet.NodeID]uint32{}
				for _, d := range v.got[id] {
					got[d.sender] = d.crc
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s delivered %v, want %v", id, got, want)
				}
			}
			v.agree(v.ids[0], v.ids...)
		})
	}
}
