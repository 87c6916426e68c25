// css-bench regenerates the non-timing experiments in EXPERIMENTS.md:
// the paper (an industrial experience report) publishes no quantitative
// tables, so each of its prose claims about exposure, policy regimes,
// onboarding, lifecycle and monitoring is mapped to a characterization
// experiment (see DESIGN.md §5). Every table holds counts, bytes and
// ratios only, so two runs print the same bytes; what a commit costs in
// time is answered by `bash benchmark/run.sh` alone.
//
// Usage:
//
//	css-bench [-exp e4,e7,...|all] [-quick]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// experiment is one runnable table generator.
type experiment struct {
	id    string
	title string
	run   func(w io.Writer, q bool) // q: quick mode (smaller parameters)
}

var experiments = []experiment{
	{"e4", "§1 claim — minimal usage: two-phase vs full-publication baselines", runE4},
	{"e7", "§1 claim — event-level policies vs all-or-nothing and over-constraining", runE7},
	{"e9", "§1 claim — onboarding cost: hub vs point-to-point", runE9},
	{"e10", "§4 — temporal decoupling: detail retrieval months later, source offline", runE10},
	{"e11", "§5.2 — subscription authorization (deny-by-default)", runE11},
	{"e12", "§5.1/§6 — elicitation → XACML compilation round trip", runE12},
	{"e13", "ablation D3 — details at producer vs controller-side cache", runE13},
	{"e15", "§1 — process monitoring over the notification stream", runE15},
	{"e16", "§2 — accountability aggregates for the governing body", runE16},
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids ("+knownIDs()+") or 'all'")
	quick := flag.Bool("quick", false, "smaller parameters for a fast pass")
	flag.Parse()

	selected, unknown := selectExperiments(*exp)
	if len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "css-bench: unknown experiment %s; known: %s, all\n",
			strings.Join(unknown, ", "), knownIDs())
		os.Exit(2)
	}
	for _, e := range selected {
		runExperiment(os.Stdout, e, *quick)
	}
}

// selectExperiments resolves a comma-separated -exp value in the order
// given, and returns every id the experiments table does not know.
func selectExperiments(spec string) (selected []experiment, unknown []string) {
	if spec == "all" {
		return experiments, nil
	}
	byID := map[string]experiment{}
	for _, e := range experiments {
		byID[e.id] = e
	}
	for _, id := range strings.Split(spec, ",") {
		if e, ok := byID[id]; ok {
			selected = append(selected, e)
		} else {
			unknown = append(unknown, id)
		}
	}
	return selected, unknown
}

func knownIDs() string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return strings.Join(ids, ",")
}

func runExperiment(w io.Writer, e experiment, quick bool) {
	fmt.Fprintf(w, "=== %s: %s ===\n", strings.ToUpper(e.id), e.title)
	e.run(w, quick)
	fmt.Fprintln(w)
}

// table renders one aligned experiment table; cells are separated by at
// least two spaces.
type table struct{ tw *tabwriter.Writer }

func newTable(w io.Writer, header ...string) *table {
	t := &table{tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)}
	rule := make([]string, len(header))
	for i, h := range header {
		rule[i] = strings.Repeat("-", len(h))
	}
	t.line(header)
	t.line(rule)
	return t
}

// row appends a row; floats print with two decimals, the rest with %v.
func (t *table) row(values ...any) {
	cells := make([]string, len(values))
	for i, v := range values {
		if f, ok := v.(float64); ok {
			cells[i] = fmt.Sprintf("%.2f", f)
		} else {
			cells[i] = fmt.Sprint(v)
		}
	}
	t.line(cells)
}

func (t *table) line(cells []string) {
	fmt.Fprintln(t.tw, strings.Join(cells, "\t"))
}

func (t *table) flush() { t.tw.Flush() }

// pick returns quick or full parameters.
func pick[T any](quick bool, q, full T) T {
	if quick {
		return q
	}
	return full
}
