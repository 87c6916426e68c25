// Distributed: the platform as separate web services (paper Fig. 2).
//
// This program runs, inside one process but over real HTTP on loopback
// ports, the full distributed deployment:
//
//   - the data controller as a web-service endpoint;
//   - the hospital's local cooperation gateway as its own endpoint,
//     attached to the controller remotely;
//   - a consumer with a notification callback endpoint, using the client
//     SDK against the controller.
//
// Run: go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/css"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	// --- data controller service ---------------------------------------
	platform, err := css.NewPlatform()
	if err != nil {
		log.Fatal(err)
	}
	defer platform.Close()
	ctrl := platform.Controller()
	if err := ctrl.RegisterProducer("hospital", "Hospital S. Maria"); err != nil {
		log.Fatal(err)
	}
	if err := ctrl.RegisterConsumer("family-doctor", "Family doctors"); err != nil {
		log.Fatal(err)
	}
	if err := ctrl.DeclareClass("hospital", schema.BloodTest()); err != nil {
		log.Fatal(err)
	}
	ctrlURL := serve(transport.NewServer(ctrl))
	fmt.Printf("data controller listening at %s\n", ctrlURL)

	// --- hospital gateway service ----------------------------------------
	gw, err := gateway.New("hospital", store.OpenMemory(), ctrl.Catalog())
	if err != nil {
		log.Fatal(err)
	}
	gwURL := serve(transport.NewGatewayServer(gw, telemetry.NewRegistry()))
	fmt.Printf("hospital gateway listening at %s\n", gwURL)
	// The controller reaches the gateway over HTTP, like in the field.
	if err := ctrl.AttachGateway("hospital", transport.NewRemoteGateway(gwURL, nil)); err != nil {
		log.Fatal(err)
	}

	// --- consumer: callback endpoint + client SDK -----------------------
	notifications := make(chan *css.Notification, 16)
	cbURL := serve(transport.NewNotificationReceiver(func(n *event.Notification) {
		notifications <- n
	}))
	fmt.Printf("doctor callback listening at %s\n\n", cbURL)

	ctx := context.Background()
	client := transport.NewClient(ctrlURL, nil)

	// The hospital (also a remote party) elicits its policy via the API.
	if _, err := client.DefinePolicy(ctx, &policy.Policy{
		Producer: "hospital",
		Actor:    "family-doctor",
		Class:    schema.ClassBloodTest,
		Purposes: []event.Purpose{css.PurposeHealthcareTreatment},
		Fields:   []event.FieldName{"patient-id", "exam-date", "hemoglobin"},
	}); err != nil {
		log.Fatal(err)
	}
	subID, err := client.Subscribe(ctx, "family-doctor", schema.ClassBloodTest, cbURL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("doctor subscribed (id %s)\n", subID)

	// The hospital produces: persist locally, publish remotely.
	d := css.NewDetail(schema.ClassBloodTest, "lab-777", "hospital").
		Set("patient-id", "PRS-000042").
		Set("exam-date", "2010-06-01").
		Set("hemoglobin", "14.1").
		Set("aids-test", "negative")
	if err := gw.Persist(d); err != nil {
		log.Fatal(err)
	}
	eventID, err := client.Publish(ctx, &css.Notification{
		SourceID: "lab-777", Class: schema.ClassBloodTest, PersonID: "PRS-000042",
		Summary: "blood test completed", OccurredAt: time.Date(2010, 6, 1, 9, 0, 0, 0, time.UTC),
		Producer: "hospital",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published event %s\n", eventID)

	select {
	case n := <-notifications:
		fmt.Printf("callback delivered: person=%s class=%s\n", n.PersonID, n.Class)
	case <-time.After(5 * time.Second):
		log.Fatal("no callback within 5s")
	}

	// Detail request across three services: client → controller → gateway.
	detail, err := client.RequestDetails(ctx, &event.DetailRequest{
		Requester: "family-doctor", Class: schema.ClassBloodTest,
		EventID: eventID, Purpose: css.PurposeHealthcareTreatment,
	})
	if err != nil {
		log.Fatal(err)
	}
	hb, _ := detail.Get("hemoglobin")
	_, leaked := detail.Get("aids-test")
	fmt.Printf("details over the wire: hemoglobin=%s, aids-test withheld=%v\n", hb, !leaked)

	// Index inquiry over the wire.
	res, err := client.InquireIndex(ctx, "family-doctor", index.Inquiry{PersonID: "PRS-000042"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote index inquiry: %d notification(s) for the patient\n", len(res))
}

// serve starts an HTTP server on an ephemeral loopback port.
func serve(h http.Handler) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go transport.NewHTTPServer(h).Serve(ln)
	return "http://" + ln.Addr().String()
}
