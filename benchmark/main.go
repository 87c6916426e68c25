// css-e2e-bench is the repository's end-to-end benchmark of the paper's
// two-phase protocol. It drives the built daemons (css-controller,
// css-gateway; verified afterwards with css-audit) over loopback HTTP in
// a closed loop, checks every output against an oracle, and prints every
// metric by name and unit. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

var selfPID = os.Getpid()

func main() {
	os.Exit(realMain())
}

func realMain() int {
	root := flag.String("root", "", "repository checkout (run.sh passes it)")
	workloadName := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 12, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced run (per-layer metrics, span files); 0: end-to-end run")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice on this build and compare against the bounds")
	quick := flag.Bool("quick", false, "smoke: small history, 1000 flows per workload, numbers not comparable")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: run.sh [-workload w] [-seed n] [-seconds s] [-trace 0|1] [-selfcheck] [-quick]")
		return 2
	}
	var run []*spec
	if *workloadName == "" {
		run = specs()
	} else if s := specByName(*workloadName); s != nil {
		run = []*spec{s}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workloadName)
		return 2
	}
	e, err := newEnv(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer e.close()
	sz := fullSizes
	if *quick {
		sz = quickSizes
		fmt.Println("QUICK SMOKE: sizes are reduced; these numbers are not comparable with full runs")
	}
	fmt.Printf("environment: %s, %d CPUs, SUT GOMAXPROCS=%d, kernel %s, commit %s\n",
		runtime.Version(), runtime.NumCPU(), sutProcs(), kernelRelease(), commitOf(e.root))

	ctx := context.Background()
	if *selfcheck {
		return selfCheck(ctx, e, run, *seed, sz, *seconds)
	}
	code := 0
	for _, s := range run {
		res, err := runOne(ctx, e, s, *seed, sz, *seconds, *trace == 1)
		if err == nil {
			err = report(res, *trace == 1)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.name, err)
			return 1
		}
		code = max(code, res.exitCode())
	}
	return code
}

// runOne generates a workload's inputs from the seed and runs it: against
// the daemons, and for a traced run also through the in-process replay.
func runOne(ctx context.Context, e *env, s *spec, seed int64, sz sizes, seconds int, traced bool) (*result, error) {
	in, err := generate(s, seed, sz, seconds)
	if err != nil {
		return nil, err
	}
	res, err := runWorkload(ctx, e, s, in, sz, seconds, traced)
	if err == nil && traced {
		err = tracedReplay(e, s, in, sz, res)
	}
	return res, err
}

// judge sets correct once the run's checks are in: no failed flow, no
// callback unaccounted for, every audit chain intact and of the expected
// length, no follower forked, no privacy violation.
func (res *result) judge() {
	res.correct = res.failed == 0 && len(res.problems) == 0 && res.violations == 0
}

// exitCode is non-zero for a run that breached the paper's guarantees: a
// privacy violation, or an audit chain that css-audit could not verify.
func (res *result) exitCode() int {
	if res.violations > 0 {
		return 1
	}
	for _, p := range res.problems {
		if strings.HasPrefix(p, "css-audit") {
			return 1
		}
	}
	return 0
}

// report prints every metric of a run by name and unit, then the one JSON
// line the driver reads: end-to-end metrics for an untraced run, per-layer
// metrics for a traced one.
func report(res *result, traced bool) error {
	fmt.Printf("\n== %s: %d flows attempted, %d failed, %d samples in %d windows; request = %s ==\n",
		res.spec.name, res.attempted, res.failed, res.summary.samples, res.summary.usedWindows, res.spec.request)
	for _, err := range res.errs {
		fmt.Printf("  failed flow: %v\n", err)
	}
	for _, p := range res.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	if res.violations > 0 {
		fmt.Printf("  %d PRIVACY VIOLATIONS\n", res.violations)
	}
	for _, w := range res.warnings {
		fmt.Printf("  warning: %s\n", w)
	}
	if res.spanFile != "" {
		fmt.Printf("  %d spans written to %s\n", res.spans, res.spanFile)
	}
	if !traced {
		for _, d := range endToEnd {
			line := fmt.Sprintf("  %-34s %14.4f %-6s (lower is better, bound %.0f%%)", d.name, res.values[d.name], d.unit, d.bound*100)
			if sp, ok := res.summary.windowSpread[d.name]; ok {
				line += fmt.Sprintf("  window spread %.1f%%", sp*100)
			}
			fmt.Println(line)
		}
	}
	for _, d := range perLayer {
		if v, ok := res.values[d.name]; ok {
			fmt.Printf("  %-34s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = metric{res.values[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err // a metric that is not a number
	}
	fmt.Println(string(line))
	return nil
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// commitOf names the checkout's commit when it is a git repository (the
// driver's checkout is not).
func commitOf(root string) string {
	head, err := os.ReadFile(root + "/.git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(root + "/.git/" + name)
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}
