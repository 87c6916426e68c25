//go:build !race

// The race detector inflates allocation counts, and `make race` runs
// the whole tree, so the budget is asserted only in uninstrumented runs.

package transport

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/schema"
)

// TestInquiryAllocBudget is the allocation-regression gate of the
// inquiry path, shaped like core's TestPublishAllocBudget: lowest of
// five rounds of testing.AllocsPerRun, budget = measured + 5 %. Two
// rows over an 8-result window: the controller answering
// (Controller.InquireIndex and the response encode), which reads every
// record from the store, decrypts and decodes it on every call; and the
// client decoding the answer. Measured at 82db5bc (encoding/json
// records, escaped nested documents, a string round trip per
// notification on both sides): 210 controller (cold notification
// cache), 87 client decode. Then 153 and 62; then 146 and 62 once the
// index scan took each event id from its key. Without the read caches
// the controller row costs 115 on every call: a read no longer clones
// the record into a cache. The rest is mostly the strings and structs a
// notification is made of, its AES-GCM open and the audit append.
func TestInquiryAllocBudget(t *testing.T) {
	const window, rounds, runs = 8, 5, 200
	ctrl, err := core.New(core.Config{MasterKey: bytes.Repeat([]byte{4}, crypto.KeySize), DefaultConsent: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if err := ctrl.RegisterProducer("hospital", "H"); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.DeclareClass("hospital", schema.BloodTest()); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.RegisterConsumer("family-doctor", "D"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.DefinePolicy(&policy.Policy{
		Producer: "hospital", Actor: "family-doctor", Class: schema.ClassBloodTest,
		Purposes: []event.Purpose{event.PurposeHealthcareTreatment}, Fields: []event.FieldName{"patient-id"},
	}); err != nil {
		t.Fatal(err)
	}
	// One second apart; the window is the middle 8 of 3 windows' worth.
	base := time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 3*window; i++ {
		if _, err := ctrl.Publish(&event.Notification{
			SourceID: event.SourceID(fmt.Sprintf("lab-%06d", i)), Class: schema.ClassBloodTest,
			PersonID: fmt.Sprintf("PRS-%04d", i), Summary: "blood test", Producer: "hospital",
			OccurredAt: base.Add(time.Duration(i) * time.Second),
		}); err != nil {
			t.Fatal(err)
		}
	}
	from := base.Add(window * time.Second)
	q := index.Inquiry{Class: schema.ClassBloodTest, From: from, To: from.Add((window - 1) * time.Second)}
	answer := func() []byte {
		res, err := ctrl.InquireIndex("family-doctor", q)
		if err != nil || len(res) != window {
			t.Fatalf("inquiry: %d results, %v", len(res), err)
		}
		body, err := appendInquiryResponse(nil, res)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	body := answer() // the client's input

	for _, tc := range []struct {
		name   string
		run    func()
		budget float64
	}{
		{"controller", func() { answer() }, 121},
		{"client decode", func() {
			if notes, err := decodeInquiryResponse(body); err != nil || len(notes) != window {
				t.Fatalf("decode: %d notifications, %v", len(notes), err)
			}
		}, 66},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := math.Inf(1)
			for round := 0; round < rounds; round++ {
				got = min(got, testing.AllocsPerRun(runs, tc.run))
			}
			t.Logf("%s: %.0f allocs/op (budget %.0f)", tc.name, got, tc.budget)
			if got > tc.budget {
				t.Errorf("%s allocates %.0f/op, budget %.0f", tc.name, got, tc.budget)
			}
		})
	}
}
