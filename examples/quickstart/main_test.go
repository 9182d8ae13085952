package main

import "testing"

// TestQuickstartRuns runs the example README's quick start opens with: a
// plain IIOP client appends to a triple-replicated register through a
// gateway and reads back what it wrote.
func TestQuickstartRuns(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
