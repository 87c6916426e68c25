package telemetry

import (
	"log/slog"
	"os"
	"sync/atomic"
	"time"
)

// The package-level logger defaults to text slog on stderr at Info.
// Daemon binaries reconfigure it at startup (SetLogger); libraries pull
// it through Logger so the whole process logs one way.
var logger atomic.Pointer[slog.Logger]

func init() {
	logger.Store(slog.New(slog.NewTextHandler(os.Stderr, nil)))
}

// Logger returns the process logger.
func Logger() *slog.Logger { return logger.Load() }

// SetLogger replaces the process logger (nil restores the default).
func SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	logger.Store(l)
}

// NewLogger builds a slog.Logger writing to stderr; json selects the
// JSON handler (for log shippers) over the human-readable text one.
func NewLogger(json bool, level slog.Level) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if json {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}

// DefaultSlowThreshold is the span duration at or above which the
// tracer logs a slow operation.
const DefaultSlowThreshold = 250 * time.Millisecond

// slowThreshold is process-wide and adjustable (SetSlowThreshold).
var slowThreshold atomic.Int64

func init() { slowThreshold.Store(int64(DefaultSlowThreshold)) }

// SetSlowThreshold adjusts the slow-operation threshold (<= 0 restores
// the default).
func SetSlowThreshold(d time.Duration) {
	if d <= 0 {
		d = DefaultSlowThreshold
	}
	slowThreshold.Store(int64(d))
}

// SlowThreshold returns the current slow-operation threshold.
func SlowThreshold() time.Duration { return time.Duration(slowThreshold.Load()) }

// logSlow emits the structured warning for a span that reached the slow
// threshold, keyed by its stage and carrying the trace ID (so the
// operator can pull the flow's spans and audit records), the duration
// and the span's attributes and error.
func logSlow(sp *Span) {
	args := make([]any, 0, 6+2*len(sp.Attrs)+2)
	args = append(args, "stage", sp.Stage, "trace", sp.Trace, "duration", sp.Duration.String())
	for _, a := range sp.Attrs {
		args = append(args, a.Key, a.Value)
	}
	if sp.Error != "" {
		args = append(args, "error", sp.Error)
	}
	Logger().Warn("slow operation", args...)
}
