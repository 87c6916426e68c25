package main

import (
	"testing"

	"repro/internal/audit"
)

// TestChainOpensWithoutSync pins what ships: css-audit opens a
// controller's audit store with the zero store.Options, as the
// controller does, so a record appended through it returns before any
// fsync. Opening it with SyncEvery fails it.
func TestChainOpensWithoutSync(t *testing.T) {
	st, chain, err := openChain(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := chain.Append(audit.Record{Kind: audit.KindPublish, Actor: "lab", Outcome: "ok"}); err != nil {
		t.Fatal(err)
	}
	if synced, end := st.WALSynced(), st.WALOffset(); synced >= end {
		t.Errorf("audit.wal fsynced through %d of %d bytes after an append; README says no daemon fsyncs", synced, end)
	}
}
