package integration

// Replicated bring-up smoke (make repl-smoke, part of `make check`):
// one primary ships its WALs to two replica processes, each running the
// self-healing election manager. The drill runs twice: in quorum mode,
// and in the default async mode, where one replica is first SIGKILLed
// mid-stream and restarted on its data dir, and must end with WALs
// byte-identical to the primary's. The primary
// is killed without warning and NO promote call is made: the replicas
// must detect the death (silent heartbeats + failing HTTP probe),
// elect exactly one of themselves at the next epoch, and the winner
// must serve inquiries and writes — feeding the survivor. Before and
// after the failover every replica is a standby that refuses
// /ws/inquire with 421. The deposed primary then restarts as a
// replica, rejoins the winner's shipping fan-out, and css-audit
// -compare must show its audit chain converged with the winner's.
// POST /ws/promote remains available as a manual override, but the
// happy path never touches it.

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/schema"
	"repro/internal/transport"
)

// startController launches a css-controller process with the given
// flags, returning the command and its combined log.
func startController(t *testing.T, args ...string) (*exec.Cmd, *lockedBuffer) {
	t.Helper()
	cmd := exec.Command(bin("css-controller"), args...)
	var buf lockedBuffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd, &buf
}

// waitCaughtUp polls the primary's replication status until every
// follower is connected with zero lag.
func waitCaughtUp(t *testing.T, c *transport.Client, followers int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := c.ReplStatus(context.Background())
		if err == nil && len(st.Followers) == followers {
			caught := true
			for _, f := range st.Followers {
				if !f.Connected || f.LagBytes != 0 {
					caught = false
					break
				}
			}
			if caught {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never caught up (last status %+v, err %v)", st, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// refusesInquiry posts a class inquiry to the controller at base and
// requires the standby's answer: HTTP 421 with the not-primary fault.
func refusesInquiry(t *testing.T, name, base string) {
	t.Helper()
	resp, err := http.Post(base+"/ws/inquire", event.ContentTypeXML, strings.NewReader(
		"<inquiryRequest><actor>family-doctor</actor><class>"+string(schema.ClassBloodTest)+"</class></inquiryRequest>"))
	if err != nil {
		t.Fatalf("%s inquiry: %v", name, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusMisdirectedRequest || !strings.Contains(string(body), transport.CodeNotPrimary) {
		t.Fatalf("%s inquiry answered %d %s, want 421 %s", name, resp.StatusCode, body, transport.CodeNotPrimary)
	}
}

// sameWALs requires every WAL file of dir a to be byte-identical to its
// namesake in dir b.
func sameWALs(t *testing.T, a, b string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(a, "*.wal"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no WALs in %s: %v", a, err)
	}
	for _, fa := range files {
		want, err := os.ReadFile(fa)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(b, filepath.Base(fa)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes in %s, %d in %s, not byte-identical", filepath.Base(fa), len(got), b, len(want), a)
		}
	}
}

// TestReplSmoke is the make repl-smoke entry point: the 1-primary /
// 2-replica self-healing failover drill against the built binaries, in
// quorum mode and in async mode.
func TestReplSmoke(t *testing.T) {
	if os.Getenv("REPL_SMOKE") == "" {
		t.Skip("set REPL_SMOKE=1 (or run `make repl-smoke`)")
	}
	t.Run("quorum", func(t *testing.T) { replDrill(t, true) })
	t.Run("async", func(t *testing.T) { replDrill(t, false) })
}

func replDrill(t *testing.T, quorum bool) {
	var mode []string
	if quorum {
		mode = []string{"-quorum"}
	}
	root := t.TempDir()
	dirP := filepath.Join(root, "primary")
	dirR1 := filepath.Join(root, "replica1")
	dirR2 := filepath.Join(root, "replica2")

	// All three nodes must share one master key: a promoted replica
	// pseudonymises publishes and inquiries with it.
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	keyFile := filepath.Join(root, "master.hex")
	if err := os.WriteFile(keyFile, []byte(hex.EncodeToString(key)+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}

	pAddr, r1Addr, r2Addr := freePort(t), freePort(t), freePort(t)
	// Three follower listen addresses are pre-arranged: rl3 is where the
	// deposed primary will come back as a replica, so every node's
	// -replicate-to (shipping targets = electorate) can name it from the
	// start.
	rl1, rl2, rl3 := freePort(t), freePort(t), freePort(t)
	pURL, r1URL, r2URL := "http://"+pAddr, "http://"+r1Addr, "http://"+r2Addr

	// The primary boots first (its shipper redials followers with
	// backoff), so the replicas' HTTP probe of -primary-url answers from
	// the first tick — the probe channel is what keeps a freshly booted
	// replica from campaigning against a primary whose replication link
	// is merely still connecting.
	pCmd, pLog := startController(t, append([]string{
		"-addr", pAddr, "-data", dirP, "-key-file", keyFile, "-scenario",
		"-role", "primary", "-replicate-to", rl1 + "," + rl2,
		"-heartbeat-interval", "50ms"}, mode...)...)
	waitReady(t, pURL)

	electionArgs := []string{
		"-election", "-primary-url", pURL,
		"-heartbeat-interval", "50ms", "-suspect-after", "750ms",
	}
	_, r1Log := startController(t, append(append([]string{
		"-addr", r1Addr, "-data", dirR1, "-key-file", keyFile,
		"-role", "replica", "-repl-listen", rl1,
		"-replicate-to", rl2 + "," + rl3}, mode...), electionArgs...)...)
	r2Args := append(append([]string{
		"-addr", r2Addr, "-data", dirR2, "-key-file", keyFile,
		"-role", "replica", "-repl-listen", rl2,
		"-replicate-to", rl1 + "," + rl3}, mode...), electionArgs...)
	r2Cmd, r2Log := startController(t, r2Args...)
	waitReady(t, r1URL)
	waitReady(t, r2URL)

	ctx := context.Background()
	pc := transport.NewClient(pURL, nil)
	r1c := transport.NewClient(r1URL, nil)
	r2c := transport.NewClient(r2URL, nil)

	// The scenario provisioning must replicate before the storm of
	// asserts: wait for both followers to drain the catch-up stream.
	waitCaughtUp(t, pc, 2)
	if st, err := pc.ReplStatus(ctx); err != nil || st.Role != "primary" || st.Quorum != quorum {
		t.Fatalf("primary replstatus = %+v, %v", st, err)
	}
	if st, err := r1c.ReplStatus(ctx); err != nil || st.Role != "replica" || st.Epoch != 1 || st.Election != "watching" {
		t.Fatalf("replica replstatus = %+v, %v; want watching replica at epoch 1", st, err)
	}

	// Publishes through the primary, quorum-acknowledged in quorum mode.
	var persons []string
	base := time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC)
	publish := func(n int) {
		t.Helper()
		for end := len(persons) + n; len(persons) < end; {
			i := len(persons)
			person := fmt.Sprintf("REPL-%03d", i)
			if _, err := pc.Publish(ctx, &event.Notification{
				Producer: "hospital-s-maria", SourceID: event.SourceID(fmt.Sprintf("repl-src-%03d", i)),
				Class: schema.ClassBloodTest, PersonID: person, Summary: "blood test",
				OccurredAt: base.Add(time.Duration(i) * time.Minute),
			}); err != nil {
				t.Fatalf("publish %s: %v\nprimary log:\n%s", person, err, pLog.String())
			}
			persons = append(persons, person)
		}
	}
	publish(5)
	waitCaughtUp(t, pc, 2)

	if !quorum {
		// An async follower's kill: replica2 dies mid-stream with what
		// it applied since its last heartbeat unfsynced, misses
		// publishes, and restarts on its data dir. It must resume and
		// end byte-identical to the primary, as replica1 must.
		r2Cmd.Process.Kill()
		r2Cmd.Wait()
		publish(3)
		_, r2Log = startController(t, r2Args...)
		waitReady(t, r2URL)
		waitCaughtUp(t, pc, 2)
		sameWALs(t, dirP, dirR1)
		sameWALs(t, dirP, dirR2)
	}

	// Replicas are standbys: inquiries and writes alike are refused
	// with the not-primary redirect.
	for name, u := range map[string]string{"replica1": r1URL, "replica2": r2URL} {
		refusesInquiry(t, name, u)
	}
	if _, err := r1c.Publish(ctx, &event.Notification{
		Producer: "hospital-s-maria", SourceID: "repl-src-refused",
		Class: schema.ClassBloodTest, PersonID: "REPL-REFUSED", OccurredAt: base,
	}); err == nil {
		t.Fatal("replica accepted a write")
	}

	// Kill the primary without warning — and call nothing. The managers
	// must detect the silence, confirm over the dead HTTP probe, and
	// elect exactly one of the replicas at an epoch above the fenced one.
	pCmd.Process.Kill()
	pCmd.Wait()

	var wc, sc *transport.Client // winner / survivor clients
	var wDir, sURL string
	var wLog, sLog *lockedBuffer
	electDeadline := time.Now().Add(30 * time.Second)
	for {
		st1, err1 := r1c.ReplStatus(ctx)
		st2, err2 := r2c.ReplStatus(ctx)
		if err1 == nil && st1.Role == "primary" && st1.Epoch >= 2 {
			wc, sc, wDir, sURL, wLog, sLog = r1c, r2c, dirR1, r2URL, r1Log, r2Log
			break
		}
		if err2 == nil && st2.Role == "primary" && st2.Epoch >= 2 {
			wc, sc, wDir, sURL, wLog, sLog = r2c, r1c, dirR2, r1URL, r2Log, r1Log
			break
		}
		if time.Now().After(electDeadline) {
			t.Fatalf("no replica auto-elected itself (r1 %+v %v; r2 %+v %v)\nreplica1 log:\n%s\nreplica2 log:\n%s",
				st1, err1, st2, err2, r1Log.String(), r2Log.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	wst, err := wc.ReplStatus(ctx)
	if err != nil || wst.Election != "leader" || wst.Promised == 0 {
		t.Fatalf("winner replstatus = %+v, %v; want leader with a durable promise", wst, err)
	}
	winnerEpoch := wst.Epoch

	// The winner serves all five events and takes writes, feeding the
	// survivor from its own WALs — which must have stood down as its
	// follower and still refuse inquiries.
	notes, err := wc.InquireIndex(ctx, "family-doctor", index.Inquiry{Class: schema.ClassBloodTest})
	if err != nil || len(notes) != len(persons) {
		t.Fatalf("winner inquiry = %d events, %v; want %d", len(notes), err, len(persons))
	}
	if _, err := wc.Publish(ctx, &event.Notification{
		Producer: "hospital-s-maria", SourceID: "repl-src-post",
		Class: schema.ClassBloodTest, PersonID: "REPL-POST", Summary: "after failover",
		OccurredAt: base.Add(time.Hour),
	}); err != nil {
		t.Fatalf("post-failover publish: %v\nwinner log:\n%s", err, wLog.String())
	}
	refusesInquiry(t, "survivor", sURL)

	// The deposed primary restarts as a replica on the pre-arranged
	// listener: it must discover the higher epoch, shed any unreplicated
	// old-epoch suffix, and converge as a follower of the winner.
	_, r3Log := startController(t,
		"-addr", pAddr, "-data", dirP, "-key-file", keyFile,
		"-role", "replica", "-repl-listen", rl3)
	waitReady(t, pURL)
	waitCaughtUp(t, wc, 2) // survivor + rejoined node, both at zero lag
	if st, err := sc.ReplStatus(ctx); err != nil || st.Role != "replica" || st.Epoch != winnerEpoch {
		t.Fatalf("survivor replstatus = %+v, %v; want replica fenced at epoch %d\nsurvivor log:\n%s",
			st, err, winnerEpoch, sLog.String())
	}
	if st, err := pc.ReplStatus(ctx); err != nil || st.Role != "replica" || st.Epoch != winnerEpoch {
		t.Fatalf("rejoined replstatus = %+v, %v; want replica at epoch %d\nrejoined log:\n%s",
			st, err, winnerEpoch, r3Log.String())
	}

	// The guarantor's post-mortem: the rejoined node's audit chain must
	// verify and match the winner's — anything else is a fork.
	var out, errOut bytes.Buffer
	audit := exec.Command(bin("css-audit"), "-data", dirP, "-compare", wDir)
	audit.Stdout, audit.Stderr = &out, &errOut
	if err := audit.Run(); err != nil {
		t.Fatalf("css-audit -compare: %v\n%s%s", err, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "chains agree through seq") &&
		!strings.Contains(out.String(), "chains identical") {
		t.Fatalf("css-audit -compare output: %s", out.String())
	}
	t.Logf("css-audit -compare:\n%s", out.String())
}
