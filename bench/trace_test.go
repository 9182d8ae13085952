package main

import "testing"

func TestSelfTimeIsDurationMinusWhatChildrenCover(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 120, End: 150}}, 70},
		{"disjoint children", []span{{Start: 100, End: 110}, {Start: 190, End: 200}}, 80},
		// Three replicas execute at once: the overlap is covered once.
		{"overlapping children", []span{{Start: 120, End: 160}, {Start: 130, End: 170}, {Start: 140, End: 150}}, 50},
		{"children covering everything", []span{{Start: 100, End: 150}, {Start: 150, End: 200}}, 0},
		// A lagging replica finishes after the client already has its
		// reply: only the part inside the parent counts.
		{"child outliving the parent", []span{{Start: 180, End: 900}}, 80},
		{"child entirely outside", []span{{Start: 300, End: 400}}, 100},
		{"unsorted input", []span{{Start: 160, End: 170}, {Start: 110, End: 120}}, 80},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRequestSpansShareTheOpIDAndNameTheirParent(t *testing.T) {
	call := callRec{op: 77, client: 1, send: 1000, recv: 1900, ok: true}
	stamps := []stamp{{entry: 1300, exit: 1310}, {}, {entry: 1250, exit: 1265}}
	spans, ok := requestSpans(call, stamps, []string{"r0", "r1", "r2"})
	if !ok {
		t.Fatal("no spans for a stamped request")
	}
	if len(spans) != 5 {
		t.Fatalf("%d spans, want client.call, leg.request, 2 × replica.exec, leg.reply", len(spans))
	}
	for i, sp := range spans {
		if sp.Trace != 77 {
			t.Errorf("span %d carries trace %d, want the op id 77", i, sp.Trace)
		}
		if i > 0 && sp.Parent != spans[0].ID {
			t.Errorf("span %s names parent %d, want the root %d", sp.Name, sp.Parent, spans[0].ID)
		}
	}
	req, rep := spans[1], spans[4]
	if req.Name != "leg.request" || req.Start != 1000 || req.End != 1250 {
		t.Errorf("leg.request = %+v, want client send → first servant entry (1250)", req)
	}
	if rep.Name != "leg.reply" || rep.Start != 1265 || rep.End != 1900 {
		t.Errorf("leg.reply = %+v, want first servant exit (1265) → client receive", rep)
	}
	// The legs and the first replica's execution tile the call, so the
	// root has no time of its own.
	if got := selfTime(spans[0], spans[1:]); got != 0 {
		t.Errorf("client.call self time = %d, want 0", got)
	}
	if _, ok := requestSpans(call, []stamp{{}, {}}, []string{"r0", "r1"}); ok {
		t.Error("spans built for a request no replica stamped")
	}
}
