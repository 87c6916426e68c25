package main

import (
	"context"
	"fmt"
	"math"
	"os"
)

// selfCheck runs every workload twice on the same build and compares the
// two runs' end-to-end metrics against the benchmark's own bounds: two
// runs of one program may not differ by more than a change is allowed to
// worsen a metric, or the bound means nothing. It returns the exit code.
func selfCheck(ctx context.Context, e *env, run []*spec, seed int64, sz sizes, seconds int) int {
	code := 0
	for _, s := range run {
		var pair [2]*result
		for i := range pair {
			res, err := runOne(ctx, e, s, seed, sz, seconds, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.name, err)
				return 1
			}
			if !res.correct {
				if err := report(res, false); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.name, err)
				}
				return 1
			}
			pair[i] = res
		}
		fmt.Printf("\n== %s: two runs of one build (%d and %d flows, 0 failed) ==\n", s.name, pair[0].attempted, pair[1].attempted)
		fmt.Printf("  %-20s %12s %12s %8s %6s   %s\n", "metric", "first", "second", "differ", "bound", "window spread (first, second)")
		for _, d := range endToEnd {
			a, b := pair[0].values[d.name], pair[1].values[d.name]
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > d.bound {
				verdict = "  EXCEEDS THE BOUND"
				code = 1
			}
			line := fmt.Sprintf("  %-20s %12.4f %12.4f %7.1f%% %5.0f%%", d.name, a, b, diff*100, d.bound*100)
			if sp, ok := pair[0].summary.windowSpread[d.name]; ok {
				line += fmt.Sprintf("   %.1f%%, %.1f%%", sp*100, pair[1].summary.windowSpread[d.name]*100)
			}
			fmt.Println(line + verdict)
		}
	}
	if code != 0 {
		fmt.Println("\nselfcheck FAILED: this host is too noisy, or a metric too unsteady, for the bounds above")
	} else {
		fmt.Println("\nselfcheck passed: every end-to-end metric repeats within its bound")
	}
	return code
}
