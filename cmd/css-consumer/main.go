// css-consumer is the consumer-side command line client of a CSS data
// controller.
//
// Usage:
//
//	css-consumer -controller URL -actor ACTOR [-codec xml|binary] <command> [flags]
//
// With -codec binary the client speaks the compact framing on every
// route, and its subscriptions ask for binary callback deliveries; the
// default is the paper's XML binding.
//
// Commands:
//
//	catalog                      browse the event catalog
//	subscribe -class C           subscribe and print notifications (runs
//	                             a callback endpoint; -listen addr)
//	inquire [-person P] [-class C] [-limit N]
//	                             query the events index
//	details -event ID -class C -purpose P [-trace T]
//	                             request the details of an event
//	                             (-trace joins an existing flow's trace)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"

	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/transport"
)

func main() {
	controller := flag.String("controller", "http://localhost:8080", "controller base URL")
	token := flag.String("token", "", "bearer token (for auth-enabled controllers)")
	actor := flag.String("actor", "", "consumer actor (required)")
	codecName := flag.String("codec", "", `wire codec: "xml" (default) or "binary"`)
	flag.Parse()
	if *actor == "" || flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	codec, err := event.CodecByName(*codecName)
	if err != nil {
		log.Fatalf("-codec: %v", err)
	}
	client := transport.NewClient(*controller, nil, transport.WithCodec(codec))
	if *token != "" {
		client = client.WithToken(*token)
	}
	a := event.Actor(*actor)

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "catalog":
		runCatalog(client)
	case "subscribe":
		runSubscribe(client, a, args)
	case "inquire":
		runInquire(client, a, args)
	case "details":
		runDetails(client, a, args)
	default:
		log.Fatalf("unknown command %q", cmd)
	}
}

func runCatalog(client *transport.Client) {
	schemas, err := client.Catalog(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range schemas {
		fmt.Printf("%s (v%d) — %s\n", s.Class(), s.Version(), s.Doc())
		for _, f := range s.Fields() {
			req := " "
			if f.Required {
				req = "*"
			}
			fmt.Printf("  %s %-20s %-9s %-11s %s\n", req, f.Name, f.Type, f.Sensitivity, f.Doc)
		}
	}
}

func runSubscribe(client *transport.Client, actor event.Actor, args []string) {
	fs := flag.NewFlagSet("subscribe", flag.ExitOnError)
	class := fs.String("class", "", "event class (required)")
	listen := fs.String("listen", "127.0.0.1:0", "callback listen address")
	probe := fs.Duration("resubscribe", transport.DefaultProbeInterval,
		"subscription liveness probe interval (0 disables re-subscription)")
	fs.Parse(args)
	if *class == "" {
		log.Fatal("-class is required")
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	receiver := transport.NewNotificationReceiver(func(n *event.Notification) {
		fmt.Printf("[%s] %s person=%s from=%s trace=%s — %s\n",
			n.OccurredAt.Format("2006-01-02 15:04"), n.Class, n.PersonID, n.Producer, n.Trace, n.Summary)
	})
	go transport.NewHTTPServer(receiver).Serve(ln)
	callback := "http://" + ln.Addr().String()

	ctx := context.Background()
	if *probe <= 0 {
		id, err := client.Subscribe(ctx, actor, event.ClassID(*class), callback)
		if err != nil {
			log.Fatalf("subscribe: %v", err)
		}
		log.Printf("subscribed as %s (callback %s); ctrl-c to stop", id, callback)
	} else {
		// Keep the subscription alive across controller restarts: the
		// controller holds subscriptions in memory, so after a restart the
		// probe sees "unknown subscription" and re-subscribes.
		sub, err := transport.NewResubscriber(ctx, client, transport.ResubscribeConfig{
			Actor:    actor,
			Class:    event.ClassID(*class),
			Callback: callback,
			Interval: *probe,
			OnChange: func(oldID, newID string) {
				log.Printf("controller lost subscription %s; re-subscribed as %s", oldID, newID)
			},
		})
		if err != nil {
			log.Fatalf("subscribe: %v", err)
		}
		defer sub.Close()
		log.Printf("subscribed as %s (callback %s, probe every %s); ctrl-c to stop",
			sub.ID(), callback, *probe)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}

func runInquire(client *transport.Client, actor event.Actor, args []string) {
	fs := flag.NewFlagSet("inquire", flag.ExitOnError)
	person := fs.String("person", "", "person id")
	class := fs.String("class", "", "event class")
	limit := fs.Int("limit", 50, "max results")
	fs.Parse(args)

	res, err := client.InquireIndex(context.Background(), actor, index.Inquiry{
		PersonID: *person,
		Class:    event.ClassID(*class),
		Limit:    *limit,
	})
	if err != nil {
		log.Fatalf("inquire: %v", err)
	}
	for _, n := range res {
		fmt.Printf("%s  %s  person=%s  from=%s  %s\n",
			n.ID, n.OccurredAt.Format("2006-01-02"), n.PersonID, n.Producer, n.Summary)
	}
	fmt.Printf("(%d notifications)\n", len(res))
}

func runDetails(client *transport.Client, actor event.Actor, args []string) {
	fs := flag.NewFlagSet("details", flag.ExitOnError)
	id := fs.String("event", "", "global event id (required)")
	class := fs.String("class", "", "event class (required)")
	purpose := fs.String("purpose", string(event.PurposeHealthcareTreatment), "purpose of use")
	trace := fs.String("trace", "", "trace id to continue (joins the publish flow's trace; empty: fresh)")
	fs.Parse(args)
	if *id == "" || *class == "" {
		log.Fatal("-event and -class are required")
	}

	d, err := client.RequestDetails(context.Background(), &event.DetailRequest{
		Requester: actor,
		Class:     event.ClassID(*class),
		EventID:   event.GlobalID(*id),
		Purpose:   event.Purpose(*purpose),
		Trace:     *trace,
	})
	if err != nil {
		log.Fatalf("details: %v", err)
	}
	fmt.Printf("event %s (%s) — released fields:\n", *id, d.Class)
	for _, name := range d.FieldNames() {
		v, _ := d.Get(name)
		fmt.Printf("  %-20s = %s\n", name, v)
	}
}
