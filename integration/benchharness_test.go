package integration

import (
	"os/exec"
	"testing"
)

// TestBenchmarkHarnessBuilds keeps the end-to-end benchmark harness
// inside tier-1: benchmark/ is its own Go module (replace repro => ../)
// that imports internal/... packages, so the root `go test ./...` never
// compiles it, and an internal API change that breaks it would surface
// only when the pipeline's benchmark run fails. Building it here makes
// that break a test failure.
func TestBenchmarkHarnessBuilds(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go binary on PATH")
	}
	build := exec.Command("go", "build", "./...")
	build.Dir = "../benchmark"
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("benchmark harness no longer builds against internal/: %v\n%s", err, out)
	}
}
