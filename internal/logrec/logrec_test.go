package logrec

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func TestRecoverWithoutCheckpoint(t *testing.T) {
	l := NewLog()
	if _, _, err := l.Recover(1); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
	l.AppendOwned(1, Entry{Seq: 5, Data: []byte("op")})
	if _, _, err := l.Recover(1); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("entries without checkpoint: err = %v", err)
	}
}

func TestCheckpointAndReplay(t *testing.T) {
	l := NewLog()
	l.Checkpoint(7, Checkpoint{Seq: 10, OpCount: 3, State: []byte("s10")})
	l.AppendOwned(7, Entry{Seq: 11, Data: []byte("op11")})
	l.AppendOwned(7, Entry{Seq: 12, Data: []byte("op12")})

	cp, entries, err := l.Recover(7)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Seq != 10 || cp.OpCount != 3 || !bytes.Equal(cp.State, []byte("s10")) {
		t.Fatalf("checkpoint = %+v", cp)
	}
	if len(entries) != 2 || entries[0].Seq != 11 || entries[1].Seq != 12 {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestCheckpointTruncatesSubsumedEntries(t *testing.T) {
	l := NewLog()
	l.Checkpoint(1, Checkpoint{Seq: 0, State: []byte("s0")})
	for seq := uint64(1); seq <= 5; seq++ {
		l.AppendOwned(1, Entry{Seq: seq, Data: []byte{byte(seq)}})
	}
	if got := l.EntryCount(1); got != 5 {
		t.Fatalf("entries = %d", got)
	}
	l.Checkpoint(1, Checkpoint{Seq: 3, State: []byte("s3")})
	_, entries, err := l.Recover(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Seq != 4 || entries[1].Seq != 5 {
		t.Fatalf("entries after truncation = %+v", entries)
	}
}

func TestLogIsolatesGroups(t *testing.T) {
	l := NewLog()
	l.Checkpoint(1, Checkpoint{Seq: 1, State: []byte("a")})
	l.Checkpoint(2, Checkpoint{Seq: 2, State: []byte("b")})
	l.AppendOwned(1, Entry{Seq: 3, Data: []byte("x")})

	if l.EntryCount(2) != 0 {
		t.Fatal("group 2 contaminated")
	}
	cp, _, err := l.Recover(2)
	if err != nil || !bytes.Equal(cp.State, []byte("b")) {
		t.Fatalf("group 2 checkpoint = %+v, %v", cp, err)
	}
}

func TestRecoverReturnsCopies(t *testing.T) {
	l := NewLog()
	state := []byte("mutable")
	l.Checkpoint(1, Checkpoint{Seq: 1, State: state})
	state[0] = 'X' // caller mutation must not affect the stored copy

	cp, _, err := l.Recover(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cp.State, []byte("mutable")) {
		t.Fatalf("stored state corrupted: %q", cp.State)
	}
	cp.State[0] = 'Y' // and mutating the recovered copy must not either
	cp2, _, _ := l.Recover(1)
	if !bytes.Equal(cp2.State, []byte("mutable")) {
		t.Fatalf("second recovery corrupted: %q", cp2.State)
	}
}

func TestDrop(t *testing.T) {
	l := NewLog()
	l.Checkpoint(1, Checkpoint{Seq: 1, State: []byte("a")})
	l.Drop(1)
	if l.HasCheckpoint(1) {
		t.Fatal("checkpoint survived drop")
	}
}

// Recovery must hand back the checkpoint followed by only the
// invocations delivered after it, still in total order — entries the
// checkpoint subsumes never reappear, even when appends and checkpoints
// interleave.
func TestRecoverOrdering(t *testing.T) {
	l := NewLog()
	l.Checkpoint(9, Checkpoint{Seq: 0, State: []byte("s0")})
	for seq := uint64(1); seq <= 10; seq++ {
		l.AppendOwned(9, Entry{Seq: seq, Data: []byte{byte(seq)}})
		if seq == 6 {
			l.Checkpoint(9, Checkpoint{Seq: 6, OpCount: 6, State: []byte("s6")})
		}
	}
	cp, entries, err := l.Recover(9)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Seq != 6 || !bytes.Equal(cp.State, []byte("s6")) {
		t.Fatalf("checkpoint = %+v, want the seq-6 state", cp)
	}
	if len(entries) != 4 {
		t.Fatalf("recovered %d entries, want the 4 after seq 6: %+v", len(entries), entries)
	}
	for i, e := range entries {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("entry %d has seq %d, want %d (out of order or subsumed)", i, e.Seq, want)
		}
		if e.Seq <= cp.Seq {
			t.Fatalf("entry %d (seq %d) predates the checkpoint", i, e.Seq)
		}
	}
}

// A checkpoint with no trailing invocations is a complete recovery
// image on its own: Recover succeeds with zero entries to replay.
func TestRecoverCheckpointZeroEntries(t *testing.T) {
	l := NewLog()
	l.Checkpoint(3, Checkpoint{Seq: 42, OpCount: 42, State: []byte("quiesced")})
	cp, entries, err := l.Recover(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("entries = %+v, want none", entries)
	}
	if cp.Seq != 42 || cp.OpCount != 42 || !bytes.Equal(cp.State, []byte("quiesced")) {
		t.Fatalf("checkpoint = %+v", cp)
	}
	// Appends after the fact extend the image without disturbing it.
	l.AppendOwned(3, Entry{Seq: 43, Data: []byte("op")})
	if _, entries, _ = l.Recover(3); len(entries) != 1 || entries[0].Seq != 43 {
		t.Fatalf("entries after late append = %+v", entries)
	}
}

// Drop racing concurrent Appends must stay internally consistent: after
// both sides settle, the group either vanished (drop won last) or holds
// exactly the entries appended after the drop — run with -race.
func TestDropConcurrentAppend(t *testing.T) {
	l := NewLog()
	const appends = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for seq := uint64(1); seq <= appends; seq++ {
			l.AppendOwned(5, Entry{Seq: seq, Data: []byte{byte(seq)}})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			l.Drop(5)
		}
	}()
	wg.Wait()
	if n := l.EntryCount(5); n > appends {
		t.Fatalf("entry count %d exceeds %d appends", n, appends)
	}
	// The group is usable again after the race: a fresh checkpoint and
	// append recover cleanly.
	l.Drop(5)
	l.Checkpoint(5, Checkpoint{Seq: 100, State: []byte("fresh")})
	l.AppendOwned(5, Entry{Seq: 101, Data: []byte("op")})
	cp, entries, err := l.Recover(5)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Seq != 100 || len(entries) != 1 || entries[0].Seq != 101 {
		t.Fatalf("post-race recovery = %+v, %+v", cp, entries)
	}
}
