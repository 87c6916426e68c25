package telemetry

import (
	"context"
	"testing"
	"time"
)

func TestNewTraceIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q is not 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if got := TraceFrom(ctx); got != "" {
		t.Fatalf("TraceFrom(empty) = %q, want empty", got)
	}
	ctx = WithTrace(ctx, "abc123")
	if got := TraceFrom(ctx); got != "abc123" {
		t.Fatalf("TraceFrom = %q, want abc123", got)
	}
}

func TestSpanLogRingAndByTrace(t *testing.T) {
	l := NewSpanLog(4)
	start := time.Date(2010, 6, 1, 9, 0, 0, 0, time.UTC)
	l.RecordSpan(Span{Trace: "t1", Stage: "index.put", Start: start, Duration: time.Millisecond})
	l.RecordSpan(Span{Trace: "t1", Stage: "bus.publish", Start: start, Duration: 2 * time.Millisecond})
	l.RecordSpan(Span{Trace: "t2", Stage: "pdp.decide", Start: start, Duration: 3 * time.Millisecond})
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	spans := l.ByTrace("t1")
	if len(spans) != 2 || spans[0].Stage != "index.put" || spans[1].Stage != "bus.publish" {
		t.Fatalf("ByTrace(t1) = %+v", spans)
	}

	// Overflow: newest 4 win, oldest first in Snapshot.
	l.RecordSpan(Span{Trace: "t3", Stage: "a", Start: start})
	l.RecordSpan(Span{Trace: "t4", Stage: "b", Start: start})
	snap := l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(snap))
	}
	if snap[0].Trace != "t1" || snap[0].Stage != "bus.publish" {
		t.Fatalf("oldest retained span = %+v, want t1/bus.publish", snap[0])
	}
	if snap[3].Trace != "t4" {
		t.Fatalf("newest span = %+v, want t4", snap[3])
	}
}

func TestNilSpanLogRecordIsNoop(t *testing.T) {
	var l *SpanLog
	l.RecordSpan(Span{Trace: "t", Stage: "stage"}) // must not panic
}
