package obs

import (
	"strings"
	"sync"
	"testing"
)

// syncBuf is a goroutine-safe string sink.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestLoggerLevelsAndComponents(t *testing.T) {
	var buf syncBuf
	root := NewLogger(&buf, LevelInfo)
	gw := root.With("gateway")
	mgmt := root.With("ftmgmt")

	gw.Infof("request from %s", "10.0.0.1")
	mgmt.Warnf("replacing replica")
	NewLogger(&buf, LevelError).With("gateway").Warnf("hidden %d", 1)
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("warn line leaked at error level:\n%s", out)
	}
	if !strings.Contains(out, "level=info component=gateway request from 10.0.0.1") {
		t.Fatalf("missing gateway line:\n%s", out)
	}
	if !strings.Contains(out, "level=warn component=ftmgmt replacing replica") {
		t.Fatalf("missing ftmgmt line:\n%s", out)
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Infof("b")
	l.Warnf("c")
	l.Errorf("d")
	if l.With("x") != nil {
		t.Fatal("With on nil logger must stay nil")
	}
	if l.Enabled(LevelError) {
		t.Fatal("nil logger enables nothing")
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "bogus": LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}
