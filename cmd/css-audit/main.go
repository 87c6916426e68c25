// css-audit is the privacy guarantor's inquiry tool: it opens a data
// controller's audit store directly (read-only access to the WAL file)
// and answers who/what/when/why questions about data access, verifying
// the hash chain first.
//
// Usage:
//
//	css-audit -data DIR [flags]
//
//	-data     controller data directory (required; reads audit.wal)
//	-actor    filter by requesting actor
//	-kind     filter by kind (publish|subscribe|detail-request|index-inquiry)
//	-outcome  filter by outcome (permit|deny|ok)
//	-event    filter by global event id
//	-trace    filter by trace/correlation id (all records of one flow)
//	-limit    max records (default 100)
//	-verify   only verify chain integrity and exit
//	-compare  second data directory: verify both audit chains and diff
//	          them record by record, reporting the first divergent hash
//	          (a forked replica) or the healthy prefix relation (a
//	          replica that is merely behind). Exits 1 on divergence.
//	-spans    span export file (JSONL); with -trace, also print the
//	          flow's span-derived stage timings
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/event"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	dataDir := flag.String("data", "", "controller data directory (required)")
	actor := flag.String("actor", "", "filter: actor")
	kind := flag.String("kind", "", "filter: kind")
	outcome := flag.String("outcome", "", "filter: outcome")
	eventID := flag.String("event", "", "filter: global event id")
	trace := flag.String("trace", "", "filter: trace/correlation id")
	limit := flag.Int("limit", 100, "max records")
	verifyOnly := flag.Bool("verify", false, "verify chain integrity and exit")
	compareDir := flag.String("compare", "", "second data directory: diff the two audit chains and report the first divergence")
	spansFile := flag.String("spans", "", "span export file (JSONL); with -trace, print the flow's stage timings after the audit records")
	flag.Parse()
	if *dataDir == "" {
		log.Fatal("-data is required")
	}

	st, logch, err := openChain(*dataDir)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	if err := logch.Verify(); err != nil {
		log.Fatalf("AUDIT CHAIN BROKEN: %v", err)
	}
	fmt.Printf("audit chain verified: %d records intact\n", logch.Len())
	if *compareDir != "" {
		compareChains(*dataDir, *compareDir)
		return
	}
	if *verifyOnly {
		return
	}

	recs, err := logch.Search(audit.Query{
		Kind:    audit.Kind(*kind),
		Actor:   *actor,
		EventID: event.GlobalID(*eventID),
		Outcome: *outcome,
		Trace:   *trace,
		Limit:   *limit,
	})
	if err != nil {
		log.Fatalf("search: %v", err)
	}
	for _, r := range recs {
		line := fmt.Sprintf("#%-6d %s  %-14s %-28s outcome=%-6s",
			r.Seq, r.At.Format("2006-01-02 15:04:05"), r.Kind, r.Actor, r.Outcome)
		if r.EventID != "" {
			line += " event=" + string(r.EventID)
		}
		if r.Purpose != "" {
			line += " purpose=" + string(r.Purpose)
		}
		if r.Trace != "" {
			line += " trace=" + r.Trace
		}
		if r.Note != "" {
			line += fmt.Sprintf(" note=%q", r.Note)
		}
		fmt.Println(line)
	}
	fmt.Printf("(%d records shown)\n", len(recs))

	if *spansFile != "" && *trace != "" {
		printStageTimings(*spansFile, *trace)
	}
}

// compareChains diffs two audit chains record by record. A replicated
// controller's audit store is a byte-identical prefix of its primary's,
// so after a failover the guarantor runs this against the deposed and
// the promoted data directories: a prefix relation means the replica
// was merely behind (or the deposed node wrote dirty post-fence
// records past the common prefix — also reported), while a hash
// mismatch inside the common range is a forked chain and exits 1.
func compareChains(dirA, dirB string) {
	a := loadChain(dirA)
	b := loadChain(dirB)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i].Seq != b[i].Seq || a[i].Hash != b[i].Hash {
			fmt.Printf("CHAINS DIVERGE at seq %d:\n", a[i].Seq)
			fmt.Printf("  %s: hash=%s kind=%s actor=%s outcome=%s\n",
				dirA, a[i].Hash, a[i].Kind, a[i].Actor, a[i].Outcome)
			fmt.Printf("  %s: hash=%s kind=%s actor=%s outcome=%s\n",
				dirB, b[i].Hash, b[i].Kind, b[i].Actor, b[i].Outcome)
			os.Exit(1)
		}
	}
	switch {
	case len(a) == len(b):
		fmt.Printf("chains identical: %d records, head hash %s\n", n, headHash(a))
	case len(a) > len(b):
		fmt.Printf("chains agree through seq %d; %s holds %d further records\n", n, dirA, len(a)-n)
	default:
		fmt.Printf("chains agree through seq %d; %s holds %d further records\n", n, dirB, len(b)-n)
	}
}

func headHash(recs []audit.Record) string {
	if len(recs) == 0 {
		return "(empty chain)"
	}
	return recs[len(recs)-1].Hash
}

// loadChain opens a controller's audit store read-only, verifies the
// chain, and returns its records in sequence order.
func loadChain(dir string) []audit.Record {
	st, logch, err := openChain(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	if err := logch.Verify(); err != nil {
		log.Fatalf("AUDIT CHAIN BROKEN in %s: %v", dir, err)
	}
	recs, err := logch.Search(audit.Query{})
	if err != nil {
		log.Fatalf("read chain %s: %v", dir, err)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs
}

// printStageTimings joins the audit view with the distributed trace:
// for the flow selected by -trace it prints each exported span's stage
// and duration, so the guarantor sees not only that an access happened
// but where its time went.
func printStageTimings(path, trace string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("open spans: %v", err)
	}
	defer f.Close()
	recs, err := telemetry.DecodeSpans(f)
	if err != nil {
		log.Fatalf("decode spans: %v", err)
	}
	var matched []telemetry.SpanRecord
	for _, r := range recs {
		if r.Trace == trace {
			matched = append(matched, r)
		}
	}
	fmt.Printf("\nstage timings for trace %s (%d spans):\n", trace, len(matched))
	sort.SliceStable(matched, func(i, j int) bool { return matched[i].Start.Before(matched[j].Start) })
	for _, r := range matched {
		line := fmt.Sprintf("  %-28s %10s  proc=%s", r.Stage, time.Duration(r.Duration)*time.Microsecond, r.Proc)
		if r.Error != "" {
			line += fmt.Sprintf("  error=%q", r.Error)
		}
		fmt.Println(line)
	}
}

// openChain opens the audit chain of the controller data directory dir.
// The store opens with the zero store.Options, as the controller's do:
// css-audit reads, and fsyncs nothing.
func openChain(dir string) (*store.Store, *audit.Log, error) {
	st, err := store.Open(filepath.Join(dir, "audit.wal"), store.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("open audit store %s: %w", dir, err)
	}
	logch, err := audit.Open(st)
	if err != nil {
		st.Close()
		return nil, nil, fmt.Errorf("open audit log %s: %w", dir, err)
	}
	return st, logch, nil
}
