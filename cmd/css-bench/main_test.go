package main

import (
	"bytes"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var cellGap = regexp.MustCompile(` {2,}`)

// runQuick runs one experiment in quick mode and returns what it printed.
func runQuick(t *testing.T, id string) string {
	t.Helper()
	selected, unknown := selectExperiments(id)
	if len(unknown) > 0 {
		t.Fatalf("unknown experiment %v", unknown)
	}
	var buf bytes.Buffer
	runExperiment(&buf, selected[0], true)
	return buf.String()
}

// quickRows is runQuick's output with every line split into table cells.
func quickRows(t *testing.T, id string) [][]string {
	t.Helper()
	var rows [][]string
	for _, line := range strings.Split(runQuick(t, id), "\n") {
		rows = append(rows, cellGap.Split(line, -1))
	}
	return rows
}

func num(t *testing.T, cell string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a number: %v", cell, err)
	}
	return f
}

// find returns the rows whose leading cells equal key.
func find(t *testing.T, rows [][]string, key ...string) [][]string {
	t.Helper()
	var out [][]string
	for _, r := range rows {
		if len(r) > len(key) && slices.Equal(r[:len(key)], key) {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no row starts with %q", key)
	}
	return out
}

// TestOutputIsDeterministic pins the property that lets EXPERIMENTS.md
// quote these tables: no cell depends on the clock or the machine.
func TestOutputIsDeterministic(t *testing.T) {
	for _, e := range experiments {
		first, second := runQuick(t, e.id), runQuick(t, e.id)
		if first != second {
			t.Errorf("%s: two runs differ:\n%s\n---\n%s", e.id, first, second)
		}
	}
}

func TestSelectExperiments(t *testing.T) {
	selected, unknown := selectExperiments("e4,e99,e1")
	if len(selected) != 1 || selected[0].id != "e4" {
		t.Errorf("selected %v, want e4 alone", selected)
	}
	if !slices.Equal(unknown, []string{"e99", "e1"}) {
		t.Errorf("unknown = %v, want [e99 e1]", unknown)
	}
	if all, unknown := selectExperiments("all"); len(all) != len(experiments) || unknown != nil {
		t.Errorf("all selected %d of %d, unknown %v", len(all), len(experiments), unknown)
	}
}

// The shape facts EXPERIMENTS.md claims, one per experiment.

func TestE4TwoPhaseExposesLeast(t *testing.T) {
	rows := quickRows(t, "e4")
	const sensitive = 3 // "sensitive bytes exposed"
	css := find(t, rows, "CSS two-phase")
	p2p := find(t, rows, "point-to-point")
	wh := find(t, rows, "warehouse copy")
	if len(css) != 4 || len(p2p) != 4 || len(wh) != 4 {
		t.Fatalf("want 4 detail rates per approach, got %d/%d/%d", len(css), len(p2p), len(wh))
	}
	for i := range css {
		c := num(t, css[i][sensitive])
		if c >= num(t, p2p[i][sensitive]) || c >= num(t, wh[i][sensitive]) {
			t.Errorf("detail rate %s: CSS exposes %v, not below both baselines", css[i][1], c)
		}
	}
}

func TestE7OnlyEventLevelCoversWithoutExcess(t *testing.T) {
	rows := quickRows(t, "e7")
	for _, regime := range []string{"CSS event-level policy", "all-or-nothing grant", "over-constraining (ordinary only)"} {
		r := find(t, rows, regime)[0]
		exact := num(t, r[1]) == 100 && num(t, r[2]) == 0
		if want := regime == "CSS event-level policy"; exact != want {
			t.Errorf("%s: coverage %s%% with %s excess fields, exact=%v want %v", regime, r[1], r[2], exact, want)
		}
	}
}

func TestE9HubLinearPointToPointQuadratic(t *testing.T) {
	rows := quickRows(t, "e9")
	for _, size := range []string{"4", "8", "16", "32", "64", "128"} {
		r := find(t, rows, size)[0]
		n, p2p, hub := num(t, r[0]), num(t, r[1]), num(t, r[2])
		if hub != n || p2p != n*n/4 {
			t.Errorf("N=%v: p2p %v hub %v, want N²/4 and N", n, p2p, hub)
		}
		if n >= 8 && hub >= p2p {
			t.Errorf("N=%v: hub %v not below p2p %v", n, hub, p2p)
		}
	}
}

func TestE10ExpiredContractDenies(t *testing.T) {
	rows := quickRows(t, "e10")
	if r := find(t, rows, "2 years", "caring-coop")[0]; r[2] != "0" || r[3] != "50" {
		t.Errorf("caring-coop at 2 years: success %s denied %s, want 0 and 50", r[2], r[3])
	}
	if r := find(t, rows, "2 years", "family-doctor")[0]; r[2] != "50" || r[3] != "0" {
		t.Errorf("family-doctor at 2 years: success %s denied %s, want 50 and 0", r[2], r[3])
	}
}

func TestE11DenyByDefault(t *testing.T) {
	rows := quickRows(t, "e11")
	for _, policies := range []string{"10", "1000"} {
		if r := find(t, rows, policies)[0]; r[1] != "500/500" || r[2] != "500/500" {
			t.Errorf("%s policies: granted %s denied %s, want 500/500 each", policies, r[1], r[2])
		}
	}
}

func TestE12ElicitedRuleIsEnforcedRule(t *testing.T) {
	rows := quickRows(t, "e12")
	if r := find(t, rows, "native vs XACML agreement")[0]; r[1] != "2000/2000 (100.00%)" {
		t.Errorf("agreement = %s, want 2000/2000 (100.00%%)", r[1])
	}
	if r := find(t, rows, "XACML XML round-trip success")[0]; r[1] != "2000/2000" {
		t.Errorf("round trip = %s, want 2000/2000", r[1])
	}
}

func TestE13NoSensitiveBytesAtController(t *testing.T) {
	rows := quickRows(t, "e13")
	if r := find(t, rows, "D3: producer gateway")[0]; r[1] != "500/500" || r[2] != "0" {
		t.Errorf("D3: served %s with %s sensitive bytes at the controller, want 500/500 and 0", r[1], r[2])
	}
	if r := find(t, rows, "ablation: controller cache")[0]; num(t, r[2]) == 0 {
		t.Error("the ablated cache holds no sensitive bytes, so the table contrasts nothing")
	}
}

func TestE15DetectsEveryCareGap(t *testing.T) {
	rows := quickRows(t, "e15")
	if r := find(t, rows, "detection accuracy")[0]; r[1] != "100.00%" {
		t.Errorf("detection accuracy = %s, want 100.00%%", r[1])
	}
}

func TestE16ReportIsSmallerThanStream(t *testing.T) {
	rows := quickRows(t, "e16")
	events := num(t, find(t, rows, "events aggregated")[0][1])
	report := num(t, find(t, rows, "report rows (producer×class×month)")[0][1])
	if report == 0 || report*100 > events {
		t.Errorf("%v report rows for %v events, want a reduction of at least 100×", report, events)
	}
}
