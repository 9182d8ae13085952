package ior

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"eternalgw/internal/cdr"
)

func TestSingleProfileRoundTrip(t *testing.T) {
	ref := New("IDL:Trading/Exchange:1.0", IIOPProfile{
		Host:      "gateway.example.com",
		Port:      9021,
		ObjectKey: []byte("exchange/nyse"),
	})
	s := ref.String()
	if !strings.HasPrefix(s, "IOR:") {
		t.Fatalf("stringified = %q", s)
	}
	got, err := Parse(s)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got.TypeID != "IDL:Trading/Exchange:1.0" {
		t.Errorf("type id = %q", got.TypeID)
	}
	p, err := got.PrimaryProfile()
	if err != nil {
		t.Fatalf("primary: %v", err)
	}
	if p.Host != "gateway.example.com" || p.Port != 9021 || string(p.ObjectKey) != "exchange/nyse" {
		t.Errorf("profile = %+v", p)
	}
	if p.Major != 1 || p.Minor != 0 {
		t.Errorf("version = %d.%d", p.Major, p.Minor)
	}
	if p.Addr() != "gateway.example.com:9021" {
		t.Errorf("addr = %q", p.Addr())
	}
}

func TestMultiProfileOrderPreserved(t *testing.T) {
	// Section 3.5: the interceptor stitches the redundant gateways into
	// one multi-profile IOR; clients traverse profiles in order.
	ref := NewMulti("IDL:X:1.0",
		IIOPProfile{Host: "gw1", Port: 1, ObjectKey: []byte("k")},
		IIOPProfile{Host: "gw2", Port: 2, ObjectKey: []byte("k")},
		IIOPProfile{Host: "gw3", Port: 3, ObjectKey: []byte("k")},
	)
	got, err := Parse(ref.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ps, err := got.IIOPProfiles()
	if err != nil {
		t.Fatalf("profiles: %v", err)
	}
	if len(ps) != 3 {
		t.Fatalf("len = %d", len(ps))
	}
	for i, want := range []string{"gw1", "gw2", "gw3"} {
		if ps[i].Host != want || ps[i].Port != uint16(i+1) {
			t.Errorf("profile %d = %+v", i, ps[i])
		}
	}
}

func TestUnknownProfilesSkipped(t *testing.T) {
	ref := New("IDL:X:1.0", IIOPProfile{Host: "h", Port: 5, ObjectKey: []byte("k")})
	// Prepend a multiple-components profile the IIOP scan must skip.
	ref.Profiles = append([]TaggedProfile{{Tag: TagMultipleComponents, Data: []byte{0, 1, 2}}}, ref.Profiles...)
	got, err := Parse(ref.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ps, err := got.IIOPProfiles()
	if err != nil || len(ps) != 1 || ps[0].Host != "h" {
		t.Fatalf("profiles = %+v, %v", ps, err)
	}
}

func TestNoIIOPProfile(t *testing.T) {
	ref := Ref{TypeID: "IDL:X:1.0", Profiles: []TaggedProfile{{Tag: TagMultipleComponents, Data: []byte{1}}}}
	if _, err := ref.IIOPProfiles(); !errors.Is(err, ErrNoIIOP) {
		t.Fatalf("err = %v, want ErrNoIIOP", err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"no prefix", "ior:00"},
		{"odd hex", "IOR:012"},
		{"bad hex", "IOR:zz"},
		{"empty", "IOR:"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.in); err == nil {
				t.Fatalf("Parse(%q) succeeded", tt.in)
			}
		})
	}
}

func TestMarshalInline(t *testing.T) {
	// References embedded in message bodies (LOCATION_FORWARD) use plain
	// CDR marshalling without the encapsulation wrapper.
	ref := New("IDL:X:1.0", IIOPProfile{Host: "h", Port: 7, ObjectKey: []byte("key")})
	w := cdr.NewWriter(cdr.LittleEndian)
	ref.Marshal(w)
	if w.Err() != nil {
		t.Fatalf("marshal: %v", w.Err())
	}
	got, err := Unmarshal(cdr.NewReader(w.Bytes(), cdr.LittleEndian))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	p, err := got.PrimaryProfile()
	if err != nil || p.Host != "h" || p.Port != 7 {
		t.Fatalf("profile = %+v, %v", p, err)
	}
}

func TestQuickIORRoundTrip(t *testing.T) {
	f := func(typeID, host string, port uint16, key []byte) bool {
		typeID = stripNUL(typeID)
		host = stripNUL(host)
		ref := New(typeID, IIOPProfile{Host: host, Port: port, ObjectKey: key})
		got, err := Parse(ref.String())
		if err != nil {
			return false
		}
		p, err := got.PrimaryProfile()
		if err != nil {
			return false
		}
		return got.TypeID == typeID && p.Host == host && p.Port == port && bytes.Equal(p.ObjectKey, key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		ref, err := Parse("IOR:" + hexOf(data))
		if err == nil {
			_, _ = ref.IIOPProfiles()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func hexOf(b []byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, len(b)*2)
	for _, c := range b {
		out = append(out, digits[c>>4], digits[c&0xF])
	}
	return string(out)
}

func stripNUL(s string) string {
	return strings.ReplaceAll(s, "\x00", "")
}

// TestHostileCounts overwrites each aligned 4-byte window of a reference
// with profiles and components — every place a CDR count can sit — with a
// hostile count and decodes it, profiles and components too: a count that
// sizes an allocation before its guard allocates from the wire, so the
// decode may allocate at most a constant multiple of the reference.
func TestHostileCounts(t *testing.T) {
	ref := New("IDL:X:1.0", IIOPProfile{Host: "gw", Port: 1, ObjectKey: []byte("key")}).
		WithComponents(ORBTypeComponent(ORBTypeEternalGW), FTDomainComponent("new-york"))
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteOctet(byte(cdr.BigEndian))
	ref.Marshal(w)
	seed := w.Bytes()
	for at := 4; at+4 <= len(seed); at += 4 {
		data := bytes.Clone(seed)
		binary.BigEndian.PutUint32(data[at:], 1<<20)
		n := allocated(func() {
			rd := cdr.NewReader(data, cdr.BigEndian)
			rd.ReadOctet()
			if r, err := Unmarshal(rd); err == nil {
				_, _ = r.IIOPProfiles()
				_, _ = r.Components()
			}
		})
		if n > 64*len(data)+4096 {
			t.Fatalf("a hostile count at %d: a %d-byte reference allocated %d bytes", at, len(data), n)
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
