package transport

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/event"
	"repro/internal/identity"
)

// Authentication is opt-in (the paper runs with trusted parties and
// defers identity management to the national layer; internal/identity is
// our implementation of that declared extension). When an Authority is
// attached to a server, every API request must carry a bearer token —
// verified before the request body is read — and the token's actor must
// cover the identity the request claims (the requesting consumer, the
// publishing/policy-defining producer, or the data controller itself at
// a gateway).

// CodeUnauthorized is the fault code of authentication failures.
const CodeUnauthorized = "unauthorized"

// ErrUnauthorized reports a missing, invalid or insufficient token.
var ErrUnauthorized = errors.New("transport: unauthorized")

// bearer is the verified caller of one request: the claims of its
// token, or anyone at all (open) when the service runs without an
// authority and trusts its network perimeter.
type bearer struct {
	claims identity.Claims
	open   bool
}

// authenticate verifies the bearer token of a request.
func (s *service) authenticate(r *http.Request) (bearer, error) {
	if s.auth == nil {
		return bearer{open: true}, nil
	}
	header := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(header, prefix) {
		return bearer{}, fmt.Errorf("%w: missing bearer token", ErrUnauthorized)
	}
	claims, err := s.auth.Verify(strings.TrimPrefix(header, prefix), s.now())
	if err != nil {
		return bearer{}, fmt.Errorf("%w: %v", ErrUnauthorized, err)
	}
	return bearer{claims: claims}, nil
}

// covers checks that the caller may act as actor.
func (b bearer) covers(actor event.Actor) error {
	if b.open || b.claims.Covers(actor) {
		return nil
	}
	return fmt.Errorf("%w: token for %s cannot act as %s", ErrUnauthorized, b.claims.Actor, actor)
}

// hasRole reports whether the caller carries a functional role.
func (b bearer) hasRole(role string) bool {
	return b.open || b.claims.HasRole(role)
}

// writeAuthFault renders an authentication failure.
func writeAuthFault(w http.ResponseWriter, err error) {
	writeXML(w, http.StatusUnauthorized, &Fault{Code: CodeUnauthorized, Message: err.Error()})
}
