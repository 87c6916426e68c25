package transport

import (
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/overload"
)

// routeClass is the admission profile of one endpoint family: its gate
// endpoint key (per-endpoint concurrency limits are configured against
// it), its shedding priority, and its default deadline, installed on the
// request context so it propagates through the controller into PDP
// evaluation and gateway fetches.
type routeClass struct {
	endpoint string
	pri      overload.Priority
	deadline time.Duration
}

// routeClassFor classifies a request path for admission. Priorities
// implement the paper's availability ordering under pressure: accepting
// notification publications (the system of record for events) outranks
// serving detail reads, which outrank browse-style queries.
func routeClassFor(path string) routeClass {
	switch path {
	case "/ws/publish":
		return routeClass{endpoint: "publish", pri: overload.Critical, deadline: 5 * time.Second}
	case "/ws/details":
		return routeClass{endpoint: "details", pri: overload.Normal, deadline: 10 * time.Second}
	case "/ws/subscribe", "/ws/policy", "/ws/consent":
		// Control-plane mutations: small, rare, and load-bearing for
		// correctness (revocations must land even under pressure).
		return routeClass{endpoint: "control", pri: overload.Critical, deadline: 5 * time.Second}
	case "/ws/inquire":
		return routeClass{endpoint: "inquire", pri: overload.Low, deadline: 10 * time.Second}
	default:
		// Catalog, pending, audit, policies, subscription probes:
		// browse-style reads, first to shed.
		return routeClass{endpoint: "query", pri: overload.Low, deadline: 5 * time.Second}
	}
}

// exemptFromAdmission reports paths that bypass the gate entirely:
// operators must be able to scrape /metrics and probe /healthz on an
// overloaded or draining node — that is precisely when they need them.
func exemptFromAdmission(path string) bool {
	return path == "/metrics" || path == "/healthz"
}

// actorKey derives the per-actor rate-limit key for a request. With
// authentication enabled the bearer token identifies the caller; without
// it the remote host stands in. The key space is bounded by the gate's
// bucket table, so hostile key churn cannot grow memory.
func actorKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		return strings.TrimPrefix(h, "Bearer ")
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// gwRouteClassFor classifies local-cooperation-gateway paths. Producer
// writes (publish relay, detail persist) are the gateway's reason to
// exist and shed last; the controller's filtered retrievals degrade to
// the consumer's retry, and anything else is browse traffic.
func gwRouteClassFor(path string) routeClass {
	switch path {
	case "/gw/publish", "/gw/persist":
		return routeClass{endpoint: "gw-write", pri: overload.Critical, deadline: 5 * time.Second}
	case "/gw/get-response":
		return routeClass{endpoint: "gw-details", pri: overload.Normal, deadline: 10 * time.Second}
	default:
		return routeClass{endpoint: "gw-query", pri: overload.Low, deadline: 5 * time.Second}
	}
}
