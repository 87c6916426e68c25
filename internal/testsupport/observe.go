package testsupport

import (
	"bytes"
	"strconv"
	"strings"

	"repro/internal/audit"
	"repro/internal/telemetry"
)

// CounterValue reads one counter series from reg's Prometheus
// exposition: the family name with labelValues, in label order. A
// series never touched reads 0.
func CounterValue(reg *telemetry.Registry, name string, labelValues ...string) uint64 {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		panic(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		series, value := line, ""
		if i := strings.LastIndex(line, "} "); i >= 0 && strings.Contains(line[:i], "{") {
			series, value = line[:i+1], line[i+2:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			series, value = line[:i], line[i+1:]
		}
		family, labels, _ := strings.Cut(series, "{")
		if family != name || !sameValues(labels, labelValues) {
			continue
		}
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			panic("testsupport: " + name + " is not a counter: " + line)
		}
		return n
	}
	return 0
}

// sameValues reports whether a label list `a="x",b="y"}` holds values,
// in order.
func sameValues(labels string, values []string) bool {
	var got []string
	for rest := labels; ; {
		_, v, ok := strings.Cut(rest, `="`)
		if !ok {
			break
		}
		end := strings.IndexByte(v, '"')
		got = append(got, v[:end])
		rest = v[end+1:]
	}
	if len(got) != len(values) {
		return false
	}
	for i := range got {
		if got[i] != values[i] {
			return false
		}
	}
	return true
}

// SpansOf returns the retained spans of one trace, oldest first.
func SpansOf(l *telemetry.SpanLog, trace string) []telemetry.Span {
	var out []telemetry.Span
	for _, s := range l.Snapshot() {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// Indexed counts the events a controller indexed, read off its audit
// chain: one publish record is appended per indexed event, and a
// republish of the same source event names the same event id again.
func Indexed(log *audit.Log) (int, error) {
	recs, err := log.Search(audit.Query{Kind: audit.KindPublish})
	if err != nil {
		return 0, err
	}
	ids := make(map[string]bool, len(recs))
	for _, r := range recs {
		ids[string(r.EventID)] = true
	}
	return len(ids), nil
}
