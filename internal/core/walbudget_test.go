package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/event"
)

// TestWALBytesPerOpBudget holds the bytes a publish and a detail request
// leave in the controller's logs to what they measure today, plus 2 %:
// the index and id-map logs per publish, the audit log per audited
// request (a publish or a detail request). Every size here repeats from
// run to run — fixed-length ids, traces and sealed person ids, and the
// controller's clock on every record — so a layout that writes more
// fails here, without the benchmark harness.
func TestWALBytesPerOpBudget(t *testing.T) {
	const ops = 200
	dir := t.TempDir()
	w := newWorldIn(t, dir)
	w.doctorPolicy(t)
	size := func(name string) int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, name+".wal"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	sizes := func() map[string]int64 {
		return map[string]int64{"index": size("index"), "audit": size("audit"), "idmap": size("idmap")}
	}

	start := sizes()
	gids := make([]event.GlobalID, ops)
	for i := range gids {
		gids[i] = w.producePublish(t, event.SourceID(fmt.Sprintf("src-%04d", i)), fmt.Sprintf("PRS-%04d", i))
	}
	published := sizes()
	for _, gid := range gids {
		if _, err := w.c.RequestDetails(w.request(gid)); err != nil {
			t.Fatal(err)
		}
	}
	requested := sizes()

	// measured is this layout's B/op. The earlier one — id-valued
	// secondary keys, a producer key, a stored predecessor hash in every
	// audit record — read 687 on index.wal and 433 on audit.wal.
	for _, c := range []struct {
		name     string
		perOp    float64
		measured float64
	}{
		{"index", float64(published["index"]-start["index"]) / ops, 523},
		{"idmap", float64(published["idmap"]-start["idmap"]) / ops, 161},
		{"audit", float64(requested["audit"]-start["audit"]) / (2 * ops), 345.2},
	} {
		t.Logf("%s.wal: %.1f B/op, budget %.1f", c.name, c.perOp, c.measured*1.02)
		if c.perOp > c.measured*1.02 {
			t.Errorf("%s.wal grows %.1f B per op, over %.1f + 2 %%", c.name, c.perOp, c.measured)
		}
	}
	for _, name := range []string{"index", "idmap"} {
		if requested[name] != published[name] {
			t.Errorf("detail requests wrote %d B to %s.wal, want none", requested[name]-published[name], name)
		}
	}
}
