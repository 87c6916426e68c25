// echo is the benchmark's speed reference: a plain net/http server that
// answers every request with 204 and shares no code with the system under
// test. The harness divides each latency by the round trip to this process
// measured in the same seconds, which cancels the host's drift.
package main

import (
	"flag"
	"log"
	"net/http"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	flag.Parse()
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	log.Fatal(http.ListenAndServe(*addr, h))
}
