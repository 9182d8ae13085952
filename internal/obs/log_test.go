package obs

import (
	"context"
	"log/slog"
	"strings"
	"testing"
)

func TestComponentLogger(t *testing.T) {
	var buf strings.Builder
	ComponentLogger(slog.New(slog.NewTextHandler(&buf, nil)), "gateway").Info("shedding connection", "remote", "10.0.0.1:9")
	if out := buf.String(); !strings.Contains(out, `level=INFO msg="shedding connection" component=gateway remote=10.0.0.1:9`) {
		t.Fatalf("line lacks its component or attributes:\n%s", out)
	}

	off := ComponentLogger(nil, "ftmgmt")
	off.Error("dropped", "k", 1)
	if off.Enabled(context.Background(), slog.Level(1<<30)) {
		t.Fatal("the logger a nil log yields enables a level")
	}
}
