package main

import "testing"

// TestStoresOpenWithoutSync pins what ships: the gateway opens its
// store and its relay outbox with the zero store.Options, so a write
// returns before any fsync (README "Crash safety"). Opening them with
// SyncEvery fails it.
func TestStoresOpenWithoutSync(t *testing.T) {
	dir := t.TempDir()
	for _, file := range []string{"gateway.wal", "outbox.wal"} {
		st, err := openStore(dir, file)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if synced, end := st.WALSynced(), st.WALOffset(); synced >= end {
			t.Errorf("%s: fsynced through %d of %d bytes after a write; README says no daemon fsyncs", file, synced, end)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
