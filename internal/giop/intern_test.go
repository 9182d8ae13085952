package giop

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"eternalgw/internal/cdr"
)

// freshInternTable gives a test an empty intern table and puts the
// package's back when it ends: what a test finds interned depends
// otherwise on which tests ran before it.
func freshInternTable(t *testing.T) {
	t.Helper()
	saved := opNames.table.Load()
	opNames.table.Store(nil)
	t.Cleanup(func() { opNames.table.Store(saved) })
}

// TestDecodeAllocatesNothing: once a request's operation name is
// interned, a decode in any GIOP version allocates nothing but the
// service-context list — one allocation however many contexts it holds,
// none without contexts. The key, principal, arguments, result and each
// context's data are views into the body.
func TestDecodeAllocatesNothing(t *testing.T) {
	freshInternTable(t)
	twoContexts := []ServiceContext{
		{ID: FTClientContextID, Data: []byte("client-7")},
		{ID: 9, Data: []byte("ctx")},
	}
	for _, minor := range []byte{0, 1, 2} {
		for _, contexts := range [][]ServiceContext{nil, twoContexts} {
			want := 0.0
			if contexts != nil {
				want = 1
			}
			req, err := EncodeRequestV(cdr.LittleEndian, minor, Request{
				RequestID: 7, ResponseExpected: true, ObjectKey: []byte("bench/register"),
				Operation: "echo", Args: []byte{0, 0, 0, 2, 7, 7}, ServiceContexts: contexts,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := EncodeReplyV(cdr.LittleEndian, minor, Reply{
				RequestID: 7, Status: ReplyNoException, Result: []byte{0, 0, 0, 2, 7, 7},
				ServiceContexts: contexts,
			})
			if err != nil {
				t.Fatal(err)
			}
			decodes := []struct {
				kind   string
				decode func() (string, []ServiceContext, error)
			}{
				{"request", func() (string, []ServiceContext, error) {
					got, err := DecodeRequest(req)
					return got.Operation, got.ServiceContexts, err
				}},
				{"reply", func() (string, []ServiceContext, error) {
					got, err := DecodeReply(rep)
					return "", got.ServiceContexts, err
				}},
			}
			for _, d := range decodes {
				t.Run(fmt.Sprintf("%s-1.%d-%d-contexts", d.kind, minor, len(contexts)), func(t *testing.T) {
					// The warm-up decode interns the name.
					op, got, err := d.decode()
					if err != nil {
						t.Fatal(err)
					}
					if d.kind == "request" && op != "echo" {
						t.Fatalf("Operation = %q", op)
					}
					if len(got) != len(contexts) {
						t.Fatalf("%d contexts, want %d", len(got), len(contexts))
					}
					for i, sc := range got {
						if sc.ID != contexts[i].ID || string(sc.Data) != string(contexts[i].Data) || cap(sc.Data) != len(sc.Data) {
							t.Errorf("context %d: %+v (cap %d), want %+v", i, sc, cap(sc.Data), contexts[i])
						}
					}
					if n := testing.AllocsPerRun(100, func() { _, _, _ = d.decode() }); n != want {
						t.Errorf("a decode made %v allocations, want %v", n, want)
					}
				})
			}
		}
	}
}

// TestInternedNamesAreBounded: a client that sends a new operation name
// every time fills the table to its bound and no further, a name too
// long for it is never taken, every name decodes to itself in or out of
// the table, and lookups racing inserts are safe.
func TestInternedNamesAreBounded(t *testing.T) {
	freshInternTable(t)
	decode := func(t *testing.T, minor byte, name string) Request {
		msg, err := EncodeRequestV(cdr.BigEndian, minor, Request{RequestID: 1, ObjectKey: []byte("k"), Operation: name})
		if err != nil {
			t.Fatal(err)
		}
		req, err := DecodeRequest(msg)
		if err != nil {
			t.Fatal(err)
		}
		if req.Operation != name {
			t.Fatalf("1.%d: Operation = %q, want %q", minor, req.Operation, name)
		}
		return req
	}
	checkBound := func(t *testing.T) {
		t.Helper()
		names := internedNames()
		if len(names) > maxInternedNames {
			t.Fatalf("the table holds %d names, more than %d", len(names), maxInternedNames)
		}
		for name, interned := range names {
			if len(name) > maxInternedLen || name != interned {
				t.Fatalf("the table holds %q -> %q (%d bytes; at most %d)", name, interned, len(name), maxInternedLen)
			}
		}
	}

	long := strings.Repeat("x", 1<<10)
	decode(t, 0, long)
	if _, ok := internedNames()[long]; ok {
		t.Fatal("a 1 KiB name was interned")
	}
	for i := 0; i < 300; i++ {
		decode(t, byte(i%3), fmt.Sprintf("operation-%03d", i))
		checkBound(t)
	}
	if n := len(internedNames()); n != maxInternedNames {
		t.Fatalf("300 names filled the table to %d, want %d", n, maxInternedNames)
	}
	// In the table a name costs nothing; past its bound, a copy.
	for name, want := range map[string]float64{"operation-000": 0, "operation-299": 1, long: 1} {
		decode(t, 0, name)
		msg, _ := EncodeRequest(cdr.BigEndian, Request{RequestID: 1, ObjectKey: []byte("k"), Operation: name})
		if n := testing.AllocsPerRun(20, func() { _, _ = DecodeRequest(msg) }); n != want {
			t.Errorf("decoding %.16q made %v allocations, want %v", name, n, want)
		}
	}

	t.Run("concurrent", func(t *testing.T) {
		freshInternTable(t)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					// Names every goroutine shares, and names of its own.
					name := fmt.Sprintf("shared-%02d", i%40)
					if i%2 == 1 {
						name = fmt.Sprintf("own-%d-%03d", g, i)
					}
					msg, err := EncodeRequestV(cdr.BigEndian, byte(i%3), Request{RequestID: uint32(i), ObjectKey: []byte("k"), Operation: name})
					if err != nil {
						t.Error(err)
						return
					}
					req, err := DecodeRequest(msg)
					if err != nil || req.Operation != name {
						t.Errorf("goroutine %d: Operation = %q (%v), want %q", g, req.Operation, err, name)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		checkBound(t)
	})
}
