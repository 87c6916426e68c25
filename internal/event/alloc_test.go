//go:build !race

// The race detector inflates allocation counts, and `make race` runs
// the whole tree, so the budget is asserted only in uninstrumented runs.

package event

import (
	"math"
	"testing"
	"time"
)

// TestDetailCodecAllocBudget is the allocation-regression gate of the
// detail read path's XML codec, on the shape the end-to-end harness
// requests: a blood-test detail with the nine fields of its schema and
// the request that fetches it. Budgets are the measured allocs/op (2,
// 27, 1 and 7) plus 5 %.
func TestDetailCodecAllocBudget(t *testing.T) {
	d := NewDetail("hospital.blood-test", "hospital-s-maria-src-00004217", "hospital-s-maria").
		Set("patient-id", "PRS-000042").Set("name", "Mario").Set("surname", "Rossi").
		Set("exam-date", "2010-05-30").Set("hemoglobin", "14.2").Set("glucose", "92.5").
		Set("cholesterol", "18.3").Set("aids-test", "negative").Set("lab-notes", "fasting sample")
	req := &DetailRequest{Requester: "family-doctor", Class: "hospital.blood-test",
		EventID: "evt-0000004217", Purpose: PurposeHealthcareTreatment,
		At: time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC), Trace: "feedbeefcafe0001"}
	detailXML, err := EncodeDetail(d)
	if err != nil {
		t.Fatal(err)
	}
	requestXML, err := EncodeDetailRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		budget float64
		op     func() error
	}{
		{"EncodeDetail", 2, func() error { _, err := EncodeDetail(d); return err }},
		{"DecodeDetail", 28, func() error { _, err := DecodeDetail(detailXML); return err }},
		{"EncodeDetailRequest", 1, func() error { _, err := EncodeDetailRequest(req); return err }},
		{"DecodeDetailRequest", 7, func() error { _, err := DecodeDetailRequest(requestXML); return err }},
	} {
		got := math.Inf(1)
		for round := 0; round < 3; round++ {
			got = min(got, testing.AllocsPerRun(200, func() {
				if err := tc.op(); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("%s: %.0f allocs/op (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s allocates %.0f/op, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
