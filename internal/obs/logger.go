package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Level orders log severities.
type Level int32

// Log levels.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the level's lowercase name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// ParseLevel maps a name to a level, defaulting to info.
func ParseLevel(s string) Level {
	switch s {
	case "debug":
		return LevelDebug
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	default:
		return LevelInfo
	}
}

// sink is the shared backend of a logger family: one writer, one mutex,
// one minimum level fixed at creation, however many component-tagged
// fronts.
type sink struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
}

// Logger is a small leveled logger. Component-tagged children share
// their parent's sink, so every line carries a consistent
// "component=..." prefix and one level governs the family.
// A nil *Logger discards everything, which is the default for library
// components.
type Logger struct {
	s         *sink
	component string
}

// NewLogger creates a logger writing lines at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{s: &sink{w: w, min: min}}
}

// With returns a child logger tagged with a component name. It shares
// the parent's writer and level.
func (l *Logger) With(component string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{s: l.s, component: component}
}

// Enabled reports whether lines at level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.s.min
}

func (l *Logger) logf(level Level, format string, args ...any) {
	if !l.Enabled(level) {
		return
	}
	comp := l.component
	if comp == "" {
		comp = "-"
	}
	line := fmt.Sprintf("%s level=%s component=%s %s\n",
		time.Now().UTC().Format("2006-01-02T15:04:05.000Z"),
		level, comp, fmt.Sprintf(format, args...))
	l.s.mu.Lock()
	_, _ = io.WriteString(l.s.w, line)
	l.s.mu.Unlock()
}

// Infof logs at info level.
func (l *Logger) Infof(format string, args ...any) { l.logf(LevelInfo, format, args...) }

// Warnf logs at warn level.
func (l *Logger) Warnf(format string, args ...any) { l.logf(LevelWarn, format, args...) }

// Errorf logs at error level.
func (l *Logger) Errorf(format string, args ...any) { l.logf(LevelError, format, args...) }
