package totem

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"eternalgw/internal/cdr"
	"eternalgw/internal/memnet"
)

func decodeFrame(t *testing.T, b []byte, wantKind byte) *cdr.Reader {
	t.Helper()
	r := cdr.NewReader(b, cdr.BigEndian)
	if k := r.ReadOctet(); k != wantKind {
		t.Fatalf("kind = %d, want %d", k, wantKind)
	}
	return r
}

func TestRegularRoundTrip(t *testing.T) {
	m := regularMsg{RingID: 3, Seq: 99, Sender: "n2", Payload: []byte("abc")}
	got, err := decodeRegular(decodeFrame(t, encodeRegular(m, nil), kindRegular), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.RingID != 3 || got.Seq != 99 || got.Sender != "n2" || got.Via != "" || !bytes.Equal(got.Payload, []byte("abc")) {
		t.Fatalf("got %+v", got)
	}
}

// TestRetransmissionNamesItsMember: a retransmission is the original with
// the retransmitting member behind the payloads, in both forms, and the
// original's bytes are a prefix of it.
func TestRetransmissionNamesItsMember(t *testing.T) {
	for _, m := range []regularMsg{
		{RingID: 4, Seq: 99, Sender: "n2", Payload: []byte("abcde")}, // ends off a 4-byte boundary
		{RingID: 4, Seq: 99, Sender: "n2", Parts: [][]byte{[]byte("a"), []byte("bcd")}},
	} {
		original := encodeRegular(m, nil)
		m.Via = "n1"
		wire := encodeRegular(m, nil)
		if !bytes.HasPrefix(wire, original) {
			t.Fatalf("the retransmission of %+v does not begin with the original", m)
		}
		decode, kind := decodeRegular, byte(kindRegular)
		if m.Parts != nil {
			decode, kind = decodePacked, kindPacked
		}
		got, err := decode(decodeFrame(t, wire, kind), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Via != "n1" || got.Sender != "n2" || !bytes.Equal(got.Payload, m.Payload) || len(got.Parts) != len(m.Parts) {
			t.Fatalf("got %+v, want %+v", got, m)
		}
	}
}

func TestTokenRoundTrip(t *testing.T) {
	tok := token{
		RingID:  7,
		TokenID: 1234,
		Seq:     500,
		Aru:     480,
		Stable:  480,
		Succ:    "n3",
		Rtr:     []rtrEntry{{Seq: 481, Age: 2}, {Seq: 483}},
		Skip:    []uint64{460, 470},
	}
	// The plain form, a commit on its first rotation, and a decided one.
	undecided, decided := tok, tok
	undecided.Members = []memnet.NodeID{"n1", "n3"}
	undecided.Entries = []commitEntry{{Filled: true, Last: ringRef{ID: 6, Low: "m"}, Majority: 4, Highest: 500, Aru: 480}, {}}
	decided.Members, decided.Decided = undecided.Members, true
	decided.Entries = []commitEntry{undecided.Entries[0], {Filled: true, Highest: 3, Aru: 2}}
	for _, tok := range []token{tok, undecided, decided} {
		got, err := decodeToken(decodeFrame(t, encodeToken(tok), kindToken), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tok) {
			t.Fatalf("got %+v, want %+v", got, tok)
		}
	}
}

// hostileCommits are commit forms the decoder must refuse, each an
// encoding of a token no core sends.
func hostileCommits() []struct {
	name  string
	frame []byte
} {
	filled := commitEntry{Filled: true, Highest: 3, Aru: 2}
	two := []memnet.NodeID{"m", "n"}
	// With no member the encoder writes the plain form: the empty commit
	// is spelled out, the decided flag and two zero counts.
	empty := append(encodeToken(token{RingID: 3, TokenID: 1, Succ: "n"}), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	return []struct {
		name  string
		frame []byte
	}{
		{"no entries and no members", empty},
		{"a list that omits the addressee", encodeToken(token{RingID: 3, TokenID: 1, Succ: "x", Members: two, Entries: []commitEntry{filled, {}}})},
		{"fewer entries than members", encodeToken(token{RingID: 3, TokenID: 1, Succ: "n", Members: two, Entries: []commitEntry{filled}})},
		{"decided with an entry not yet written", encodeToken(token{RingID: 3, TokenID: 3, Succ: "n", Members: two, Entries: []commitEntry{filled, {}}, Decided: true})},
	}
}

func TestTokenRejectsHostileCommits(t *testing.T) {
	for _, c := range hostileCommits() {
		if tok, err := decodeToken(cdrSkipKind(c.frame), nil); err == nil {
			t.Errorf("%s: decoded %+v", c.name, tok)
		}
	}
}

func TestTokenRoundTripEmptyLists(t *testing.T) {
	tok := token{RingID: 1, TokenID: 1, Succ: "a"}
	got, err := decodeToken(decodeFrame(t, encodeToken(tok), kindToken), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.RingID != 1 || got.Succ != "a" || len(got.Rtr) != 0 || len(got.Skip) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestJoinRoundTrip(t *testing.T) {
	jm := joinMsg{
		Sender: "n5",
		Alive:  []memnet.NodeID{"n1", "n5", "n9"},
		RingID: 12,
	}
	got, err := decodeJoin(decodeFrame(t, encodeJoin(jm), kindJoin))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, jm) {
		t.Fatalf("got %+v, want %+v", got, jm)
	}
}

func TestQuickTokenRoundTrip(t *testing.T) {
	f := func(ringID, tokenID, seq, aru uint64, rtrSeqs []uint64, skip []uint64) bool {
		tok := token{RingID: ringID, TokenID: tokenID, Seq: seq, Aru: aru, Stable: aru / 2, Succ: "y"}
		for _, s := range rtrSeqs {
			tok.Rtr = append(tok.Rtr, rtrEntry{Seq: s, Age: uint32(s % 7)})
		}
		tok.Skip = skip
		got, err := decodeToken(cdrSkipKind(encodeToken(tok)), nil)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalizeToken(got), normalizeToken(tok))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForwardRoundTrip(t *testing.T) {
	fm := forwardMsg{RingID: 5, Sender: "n7", FwdSeq: 42, Parts: [][]byte{[]byte("one"), []byte("two"), {}}}
	got, err := decodeForward(decodeFrame(t, encodeForward(fm, nil), kindForward), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.RingID != 5 || got.Sender != "n7" || got.FwdSeq != 42 || len(got.Parts) != 3 {
		t.Fatalf("got %+v", got)
	}
	for i := range fm.Parts {
		if !bytes.Equal(got.Parts[i], fm.Parts[i]) {
			t.Fatalf("part %d = %q, want %q", i, got.Parts[i], fm.Parts[i])
		}
	}
}

func TestForwardRejectsEmptyAndHostile(t *testing.T) {
	// The encoder cannot write a forward without parts (no payload is one
	// empty part), so the counts are written by hand. Zero parts is the
	// by-reference form, which only a batch has.
	frame := func(count uint32) *cdr.Reader {
		w := cdr.NewWriter(cdr.BigEndian)
		w.WriteOctet(kindForward)
		w.WriteULongLong(1)
		w.WriteString("n")
		w.WriteULongLong(1)
		w.WriteULong(count)
		return cdrSkipKind(w.Bytes())
	}
	if _, err := decodeForward(frame(0), nil); err == nil {
		t.Fatal("empty forward decoded")
	}
	// A hostile part count larger than the remaining bytes could carry
	// must be rejected before allocation.
	if _, err := decodeForward(frame(1<<30), nil); err == nil {
		t.Fatal("hostile part count decoded")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	bm := batchMsg{
		RingID: 9, Seq: 1234, Leader: "n0", Origin: "n2", OriginFwd: 17, Stable: 1200,
		Parts: [][]byte{[]byte("payload")},
	}
	got, err := decodeBatch(decodeFrame(t, encodeBatch(bm, nil), kindBatch), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.RingID != 9 || got.Seq != 1234 || got.Leader != "n0" || got.Origin != "n2" ||
		got.OriginFwd != 17 || got.Stable != 1200 || got.Ref || got.Parts != nil || !bytes.Equal(got.Payload, bm.Parts[0]) {
		t.Fatalf("got %+v", got)
	}
}

// TestBatchByReferenceRoundTrip pins the by-reference wire form: the
// leader header behind a part count of zero and nothing else, whatever
// payloads the struct happens to carry.
func TestBatchByReferenceRoundTrip(t *testing.T) {
	bm := batchMsg{RingID: 9, Seq: 1234, Leader: "n0", Origin: "n2", OriginFwd: 17, Stable: 1200, Ref: true}
	full := bm
	full.Ref, full.Payload = false, []byte("payload")
	frame := encodeBatch(bm, nil)
	if want := len(encodeBatch(full, nil)) - 4 - len(full.Payload); len(frame) != want {
		t.Fatalf("by-reference batch is %d bytes, want the %d of the header alone", len(frame), want)
	}
	withPayload := bm
	withPayload.Payload = []byte("ignored")
	if !bytes.Equal(encodeBatch(withPayload, nil), frame) {
		t.Fatal("a by-reference batch put its payload on the wire")
	}
	got, err := decodeBatch(decodeFrame(t, frame, kindBatch), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, bm) {
		t.Fatalf("got %+v, want %+v", got, bm)
	}
	// Bytes behind the header are a malformed datagram, not a payload.
	if _, err := decodeBatch(cdrSkipKind(append(bytes.Clone(frame), 0, 0, 0, 0)), nil); err == nil {
		t.Fatal("a by-reference batch with trailing bytes decoded")
	}
}

// TestAckHeaderOnlyDecode: a non-sequencer reads the ring id and stops.
func TestAckHeaderOnlyDecode(t *testing.T) {
	frame := encodeAck(ackMsg{RingID: 7, Sender: "n1", Aru: 800, Nak: []uint64{801, 803}})
	got, err := decodeAck(cdrSkipKind(frame), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ackMsg{RingID: 7}) {
		t.Fatalf("got %+v, want the ring id alone", got)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = decodeAck(cdrSkipKind(frame), nil, false) }); n != 0 {
		t.Fatalf("header-only ack decode allocates %v times", n)
	}
	if _, err := decodeAck(cdrSkipKind(frame[:5]), nil, false); err == nil {
		t.Fatal("an ack truncated inside its ring id decoded")
	}
}

// allParts flattens the Payload-or-Parts convention for comparison.
func allParts(payload []byte, parts [][]byte) [][]byte {
	if parts == nil {
		return [][]byte{payload}
	}
	return parts
}

func TestAckRoundTrip(t *testing.T) {
	am := ackMsg{RingID: 2, Sender: "n1", Aru: 800, Nak: []uint64{801, 803}}
	got, err := decodeAck(decodeFrame(t, encodeAck(am), kindAck), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, am) {
		t.Fatalf("got %+v, want %+v", got, am)
	}
	// Empty nak list survives too.
	am2 := ackMsg{RingID: 2, Sender: "n1", Aru: 801}
	got2, err := decodeAck(cdrSkipKind(encodeAck(am2)), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Aru != 801 || len(got2.Nak) != 0 {
		t.Fatalf("got %+v", got2)
	}
}

func TestPromoteRoundTrip(t *testing.T) {
	pm := promoteMsg{RingID: 3, Leader: "n0", StartSeq: 555, Stable: 555}
	got, err := decodePromote(decodeFrame(t, encodePromote(pm), kindPromote), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pm) {
		t.Fatalf("got %+v, want %+v", got, pm)
	}
}

func TestQuickForwardBatchRoundTrip(t *testing.T) {
	f := func(ringID, fwd uint64, payloads [][]byte) bool {
		if len(payloads) == 0 {
			payloads = [][]byte{{}}
		}
		fm := forwardMsg{RingID: ringID, Sender: "q", FwdSeq: fwd, Parts: payloads}
		gotF, err := decodeForward(cdrSkipKind(encodeForward(fm, nil)), nil)
		partsF := allParts(gotF.Payload, gotF.Parts)
		if err != nil || gotF.FwdSeq != fwd || len(partsF) != len(payloads) {
			return false
		}
		bm := batchMsg{RingID: ringID, Seq: fwd + 1, Leader: "l", Origin: "q", OriginFwd: fwd, Stable: fwd / 2, Parts: payloads}
		gotB, err := decodeBatch(cdrSkipKind(encodeBatch(bm, nil)), nil)
		partsB := allParts(gotB.Payload, gotB.Parts)
		if err != nil || gotB.Seq != fwd+1 || gotB.Origin != "q" || gotB.Ref || len(partsB) != len(payloads) {
			return false
		}
		// One payload comes back without a slice header around it.
		if (len(payloads) == 1) != (gotF.Parts == nil) || (len(payloads) == 1) != (gotB.Parts == nil) {
			return false
		}
		for i := range payloads {
			if !bytes.Equal(partsF[i], payloads[i]) || !bytes.Equal(partsB[i], payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodersNeverPanic(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		r := cdr.NewReader(data, cdr.BigEndian)
		switch r.ReadOctet() {
		case kindRegular:
			_, _ = decodeRegular(r, nil)
		case kindToken:
			_, _ = decodeToken(r, nil)
		case kindJoin:
			_, _ = decodeJoin(r)
		case kindForward:
			_, _ = decodeForward(r, nil)
		case kindBatch:
			_, _ = decodeBatch(r, nil)
		case kindAck:
			_, _ = decodeAck(r, nil, true)
		case kindPromote:
			_, _ = decodePromote(r, nil)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedLeaderFramesRejected slices every prefix of valid
// leader-mode frames through the decoders: truncation must error, never
// panic or return success.
func TestTruncatedLeaderFramesRejected(t *testing.T) {
	frames := [][]byte{
		encodeForward(forwardMsg{RingID: 1, Sender: "n1", FwdSeq: 2, Parts: [][]byte{[]byte("abc"), []byte("defg")}}, nil),
		encodeBatch(batchMsg{RingID: 1, Seq: 3, Leader: "n0", Origin: "n1", OriginFwd: 2, Stable: 1, Parts: [][]byte{[]byte("abc")}}, nil),
		encodeBatch(batchMsg{RingID: 1, Seq: 3, Leader: "n0", Origin: "n1", OriginFwd: 2, Stable: 1, Ref: true}, nil),
		encodeAck(ackMsg{RingID: 1, Sender: "n1", Aru: 3, Nak: []uint64{4}}),
		encodePromote(promoteMsg{RingID: 1, Leader: "n0", StartSeq: 3, Stable: 3}),
	}
	for _, frame := range frames {
		kind := frame[0]
		for cut := 1; cut < len(frame); cut++ {
			r := cdr.NewReader(frame[:cut], cdr.BigEndian)
			var err error
			switch r.ReadOctet() {
			case kindForward:
				_, err = decodeForward(r, nil)
			case kindBatch:
				_, err = decodeBatch(r, nil)
			case kindAck:
				_, err = decodeAck(r, nil, true)
			case kindPromote:
				_, err = decodePromote(r, nil)
			}
			if err == nil && cut < len(frame) {
				t.Fatalf("kind %d truncated at %d/%d decoded without error", kind, cut, len(frame))
			}
		}
	}
}

func cdrSkipKind(b []byte) *cdr.Reader {
	r := cdr.NewReader(b, cdr.BigEndian)
	r.ReadOctet()
	return r
}

// normalizeToken maps nil and empty slices to a canonical form for
// DeepEqual comparison.
func normalizeToken(t token) token {
	if len(t.Rtr) == 0 {
		t.Rtr = nil
	}
	if len(t.Skip) == 0 {
		t.Skip = nil
	}
	return t
}
