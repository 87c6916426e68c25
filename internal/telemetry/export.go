package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// ExporterConfig tunes the durable span exporter.
type ExporterConfig struct {
	// Path is the JSONL file spans are appended to. Required.
	Path string
	// MaxBytes rotates the file to Path+".1" when it grows past this
	// size (DefaultExportMaxBytes when <= 0).
	MaxBytes int64
}

// DefaultExportMaxBytes is the export file's default rotation size.
const DefaultExportMaxBytes = 16 << 20

// SpanRecord is the JSONL wire form of an exported span, shared with
// cmd/css-trace and the /debug/spans endpoint.
type SpanRecord struct {
	Trace    string      `json:"trace"`
	Stage    string      `json:"stage"`
	ID       string      `json:"id,omitempty"`
	Parent   string      `json:"parent,omitempty"`
	Start    time.Time   `json:"start"`
	Duration int64       `json:"dur_us"` // microseconds
	Attrs    []Attr      `json:"attrs,omitempty"`
	Events   []SpanEvent `json:"events,omitempty"`
	Error    string      `json:"error,omitempty"`
	// Proc labels the exporting process ("controller", "gateway", ...)
	// so merged files remain attributable.
	Proc string `json:"proc,omitempty"`
}

// ToRecord converts a span to its export form, stamped with proc.
func ToRecord(s Span, proc string) SpanRecord {
	return SpanRecord{
		Trace:    s.Trace,
		Stage:    s.Stage,
		ID:       s.ID,
		Parent:   s.Parent,
		Start:    s.Start,
		Duration: s.Duration.Microseconds(),
		Attrs:    s.Attrs,
		Events:   s.Events,
		Error:    s.Error,
		Proc:     proc,
	}
}

// Span converts the record back to the in-process form.
func (r SpanRecord) Span() Span {
	return Span{
		Trace:    r.Trace,
		Stage:    r.Stage,
		ID:       r.ID,
		Parent:   r.Parent,
		Start:    r.Start,
		Duration: time.Duration(r.Duration) * time.Microsecond,
		Attrs:    r.Attrs,
		Events:   r.Events,
		Error:    r.Error,
	}
}

// DecodeSpans reads JSONL span records from r, skipping blank lines.
func DecodeSpans(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return out, fmt.Errorf("decode span line: %w", err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// Exporter appends spans to a bounded JSONL ring-file: when the file
// exceeds MaxBytes it is rotated to Path+".1" (replacing any previous
// generation), so disk use is bounded at ~2×MaxBytes. It writes every
// span it is handed; the Tracer's keep rule alone decides which spans
// those are, so the file and the /debug/spans ring hold the same ones.
// Safe for concurrent use.
type Exporter struct {
	cfg  ExporterConfig
	proc string

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	written int64
	dropped uint64
	closed  bool
}

// NewExporter opens (appending) the export file. proc labels the
// exporting process in each record.
func NewExporter(cfg ExporterConfig, proc string) (*Exporter, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("telemetry: exporter needs a path")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultExportMaxBytes
	}
	e := &Exporter{cfg: cfg, proc: proc}
	if err := e.open(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Exporter) open() error {
	f, err := os.OpenFile(e.cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	e.f = f
	e.w = bufio.NewWriterSize(f, 32<<10)
	e.written = st.Size()
	return nil
}

// Export writes the span. Write errors are counted, not returned:
// tracing must never fail the traced flow.
func (e *Exporter) Export(s Span) {
	if e == nil {
		return
	}
	b, err := json.Marshal(ToRecord(s, e.proc))
	if err != nil {
		return
	}
	b = append(b, '\n')
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		e.dropped++
		return
	}
	if e.written+int64(len(b)) > e.cfg.MaxBytes {
		if err := e.rotateLocked(); err != nil {
			e.dropped++
			return
		}
	}
	n, err := e.w.Write(b)
	e.written += int64(n)
	if err != nil {
		e.dropped++
	}
}

// rotateLocked moves the current file to Path+".1" and reopens fresh.
func (e *Exporter) rotateLocked() error {
	e.w.Flush()
	e.f.Close()
	if err := os.Rename(e.cfg.Path, e.cfg.Path+".1"); err != nil && !os.IsNotExist(err) {
		return err
	}
	return e.open()
}

// Dropped reports how many spans were lost to write errors.
func (e *Exporter) Dropped() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// Flush forces buffered spans to disk (wired into daemon drain).
func (e *Exporter) Flush() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	if err := e.w.Flush(); err != nil {
		return err
	}
	return e.f.Sync()
}

// Close flushes and closes the file. Further Exports are dropped.
func (e *Exporter) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	err := e.w.Flush()
	if cerr := e.f.Close(); err == nil {
		err = cerr
	}
	return err
}
