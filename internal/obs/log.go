package obs

import (
	"context"
	"log/slog"
)

// ComponentLogger returns log with every line tagged component=name. A
// nil log — the default for library components — yields a logger that
// is never enabled, so a component given none logs nothing and pays no
// formatting for it.
func ComponentLogger(log *slog.Logger, name string) *slog.Logger {
	if log == nil {
		return slog.New(disabled{})
	}
	return log.With("component", name)
}

// disabled is a slog.Handler that enables no level.
type disabled struct{}

func (disabled) Enabled(context.Context, slog.Level) bool  { return false }
func (disabled) Handle(context.Context, slog.Record) error { return nil }
func (d disabled) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d disabled) WithGroup(string) slog.Handler           { return d }
