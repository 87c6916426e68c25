// Package integration drives the built command-line binaries through a
// full deployment scenario: an authenticated controller, token minting,
// policy elicitation, publication via the HTTP API, consumer inquiry and
// detail retrieval, and the audit tool over the persisted trail.
package integration

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/schema"
	"repro/internal/transport"
)

// binaries built once per test run.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "css-int-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./...")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func bin(name string) string { return filepath.Join(binDir, name) }

// freePort grabs an ephemeral port.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/ws/catalog")
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("controller did not come up")
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin(name), args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout: %s\nstderr: %s", name, args, err, stdout.String(), stderr.String())
	}
	return stdout.String()
}

func TestCLIScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dataDir := t.TempDir()
	addr := freePort(t)
	url := "http://" + addr
	authKey := filepath.Join(dataDir, "auth.hex")

	ctrl := exec.Command(bin("css-controller"),
		"-addr", addr, "-data", dataDir,
		"-key-file", filepath.Join(dataDir, "master.hex"),
		"-auth-key-file", authKey, "-scenario")
	var ctrlLog bytes.Buffer
	ctrl.Stdout, ctrl.Stderr = &ctrlLog, &ctrlLog
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctrl.Process.Kill()
		ctrl.Wait()
	}()
	waitReady(t, url)

	// Mint tokens for the actors.
	doctorTok := strings.TrimSpace(run(t, "css-token", "-key-file", authKey,
		"issue", "-actor", "family-doctor"))
	hospitalTok := strings.TrimSpace(run(t, "css-token", "-key-file", authKey,
		"issue", "-actor", "hospital-s-maria"))

	// Inspect round-trips.
	inspect := run(t, "css-token", "-key-file", authKey, "inspect", "-token", doctorTok)
	if !strings.Contains(inspect, "family-doctor") {
		t.Fatalf("inspect: %s", inspect)
	}

	// The catalog is browsable with a token.
	catalog := run(t, "css-consumer", "-controller", url, "-token", doctorTok,
		"-actor", "family-doctor", "catalog")
	if !strings.Contains(catalog, "hospital.blood-test") {
		t.Fatalf("catalog: %s", catalog)
	}

	// Publish an event through the client SDK as the hospital (persist at
	// an in-process gateway attached via the scenario provisioning).
	client := transport.NewClient(url, nil).WithToken(hospitalTok)
	gid, err := client.Publish(context.Background(), &event.Notification{
		SourceID: "cli-src-1", Class: schema.ClassBloodTest, PersonID: "PRS-0001",
		Summary: "blood test", OccurredAt: time.Date(2010, 6, 1, 9, 0, 0, 0, time.UTC),
		Producer: "hospital-s-maria",
	})
	if err != nil {
		t.Fatalf("publish: %v", err)
	}

	// Inquire as the doctor via the CLI.
	inquiry := run(t, "css-consumer", "-controller", url, "-token", doctorTok,
		"-actor", "family-doctor", "inquire", "-person", "PRS-0001")
	if !strings.Contains(inquiry, string(gid)) {
		t.Fatalf("inquire: %s", inquiry)
	}

	// Elicit an extra policy via css-policyctl (XACML preview + define).
	preview := run(t, "css-policyctl", "-controller", url, "-token", hospitalTok,
		"xacml", "-producer", "hospital-s-maria", "-class", "hospital.blood-test",
		"-fields", "patient-id,glucose", "-consumers", "research-institute",
		"-purposes", "statistical-analysis")
	if !strings.Contains(preview, "urn:css:obligation:include-fields") {
		t.Fatalf("xacml preview: %s", preview)
	}
	defined := run(t, "css-policyctl", "-controller", url, "-token", hospitalTok,
		"define", "-producer", "hospital-s-maria", "-class", "hospital.blood-test",
		"-fields", "patient-id,glucose", "-consumers", "research-institute",
		"-purposes", "statistical-analysis", "-name", "research access")
	if !strings.Contains(defined, "stored pol-") {
		t.Fatalf("define: %s", defined)
	}

	// Export the corpus as a PolicySet.
	export := run(t, "css-policyctl", "-controller", url, "-token", hospitalTok,
		"export", "-producer", "hospital-s-maria")
	if !strings.Contains(export, "PolicySetId=\"policy-set:hospital-s-maria\"") {
		t.Fatalf("export: %s", export)
	}
	set := export[strings.Index(export, "<PolicySet"):]
	var parsed struct {
		Policies []struct {
			ID string `xml:"PolicyId,attr"`
		} `xml:"Policy"`
	}
	if err := xml.Unmarshal([]byte(set), &parsed); err != nil || len(parsed.Policies) == 0 {
		t.Fatalf("exported set does not parse: %+v, %v", parsed, err)
	}

	// The scenario gateway holds no detail for our CLI event, so details
	// via the CLI must fail cleanly with a not-found (the policy matched).
	var detailsOut bytes.Buffer
	detailsCmd := exec.Command(bin("css-consumer"), "-controller", url, "-token", doctorTok,
		"-actor", "family-doctor", "details", "-event", string(gid),
		"-class", "hospital.blood-test", "-purpose", "healthcare-treatment")
	detailsCmd.Stdout, detailsCmd.Stderr = &detailsOut, &detailsOut
	if err := detailsCmd.Run(); err == nil {
		t.Fatalf("details unexpectedly succeeded: %s", detailsOut.String())
	}
	if !strings.Contains(detailsOut.String(), "not found") {
		t.Fatalf("details error = %s", detailsOut.String())
	}

	// Stop the controller and audit the persisted trail offline.
	ctrl.Process.Kill()
	ctrl.Wait()
	auditOut := run(t, "css-audit", "-data", dataDir, "-kind", "publish")
	if !strings.Contains(auditOut, "audit chain verified") ||
		!strings.Contains(auditOut, "hospital-s-maria") {
		t.Fatalf("audit: %s", auditOut)
	}
}
