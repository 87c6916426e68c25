package integration

import (
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// daemonFlags is the committed flag surface of each serving daemon, in
// the sorted order `-h` prints. Adding or removing a flag must update
// this list in the same change.
var daemonFlags = map[string][]string{
	"css-controller": {
		"actor-rps", "addr", "auth-key-file", "codec", "data",
		"deny-default-consent", "drain-timeout", "election", "gateway",
		"gateway-token", "heartbeat-interval", "key-file", "log-json",
		"max-inflight", "peers", "pprof", "primary-url", "queue-cap",
		"quorum", "repl-listen", "replicate-to", "role", "scenario",
		"shard-id", "slow", "span-file", "span-sample", "suspect-after",
	},
	"css-gateway": {
		"actor-rps", "addr", "auth-key-file", "codec", "controller",
		"controller-actor", "data", "drain-timeout", "log-json",
		"max-inflight", "pprof", "producer", "span-file", "span-sample",
		"token",
	},
}

// flagLine matches a flag's first line in the flag package's usage
// output: two spaces, a dash, the name.
var flagLine = regexp.MustCompile(`(?m)^  -([A-Za-z0-9][A-Za-z0-9-]*)`)

// TestFlagSurface runs each built daemon with -h and compares the flag
// names it prints with the committed list.
func TestFlagSurface(t *testing.T) {
	for name, want := range daemonFlags {
		out, err := exec.Command(bin(name), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", name, err, out)
		}
		var got []string
		for _, m := range flagLine.FindAllStringSubmatch(string(out), -1) {
			got = append(got, m[1])
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s flags changed:\n got  %d: %s\n want %d: %s",
				name, len(got), strings.Join(got, " "), len(want), strings.Join(want, " "))
		}
	}
}
