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
// five rounds of testing.AllocsPerRun, budget = measured + 5 %. Three
// rows, each over an 8-result window: the controller answering
// (Controller.InquireIndex and the response encode), once with the
// notification cache cold — every record read from the store, decrypted
// and decoded — and once warm; and the client decoding the answer.
// Measured at the parent (82db5bc: encoding/json records, escaped
// nested documents, a string round trip per notification on both
// sides): 210 cold, 74 warm, 87 client decode. Then 153, 57, 62; since
// the index scan takes each event id from its key instead of converting
// the secondary value, 146, 50, 62 — the rest is mostly the strings and
// structs a notification is made of, its AES-GCM open and the audit
// append.
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
	// One second apart, so window k is [8k, 8k+7] seconds: a cold row
	// reads a window no earlier run has touched, every run of every round.
	base := time.Date(2010, 5, 30, 9, 0, 0, 0, time.UTC)
	events := window * rounds * (runs + 1)
	for i := 0; i < events; i++ {
		if _, err := ctrl.Publish(&event.Notification{
			SourceID: event.SourceID(fmt.Sprintf("lab-%06d", i)), Class: schema.ClassBloodTest,
			PersonID: fmt.Sprintf("PRS-%04d", i%997), Summary: "blood test", Producer: "hospital",
			OccurredAt: base.Add(time.Duration(i) * time.Second),
		}); err != nil {
			t.Fatal(err)
		}
	}
	inquiry := func(k int) index.Inquiry {
		from := base.Add(time.Duration(window*k) * time.Second)
		return index.Inquiry{Class: schema.ClassBloodTest, From: from, To: from.Add((window - 1) * time.Second)}
	}
	answer := func(q index.Inquiry) []byte {
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
	cold := 0
	body := answer(inquiry(events/window - 1)) // the warm window, also the client's input

	for _, tc := range []struct {
		name   string
		run    func()
		budget float64
	}{
		{"controller, cold cache", func() { answer(inquiry(cold)); cold++ }, 153},
		{"controller, warm cache", func() { answer(inquiry(events/window - 1)) }, 53},
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
