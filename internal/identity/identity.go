// Package identity implements the identity-management extension the
// paper defers to the national infrastructure (§5: "we plan to include as
// future extension of the infrastructure identity management mechanisms
// ... for the identification of the specific users accessing the
// information, to validate their credentials and roles and to manage
// changes and revocation of authorizations").
//
// An Authority issues HMAC-signed bearer tokens binding a principal to an
// organizational actor and a role set, with an expiry; it verifies tokens
// presented on web-service calls. A token is not revocable before it
// expires. The trusted-parties assumption of the paper becomes
// checkable: a request may only act as an actor its token covers.
package identity

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/event"
)

// KeySize is the authority's signing key size.
const KeySize = 32

// Errors reported by token verification.
var (
	ErrMalformed = errors.New("identity: malformed token")
	ErrSignature = errors.New("identity: invalid signature")
	ErrExpired   = errors.New("identity: token expired")
	ErrNotYet    = errors.New("identity: token not yet valid")
)

// Claims are the verified contents of a token.
type Claims struct {
	// TokenID identifies the token.
	TokenID string `json:"jti"`
	// Actor is the organizational unit the bearer acts as. The token
	// covers the actor and (for organization-level tokens) its
	// departments.
	Actor event.Actor `json:"actor"`
	// Roles carry functional roles (e.g. "doctor", "privacy-expert");
	// they are informative to the platform, which authorizes by actor.
	Roles []string `json:"roles,omitempty"`
	// IssuedAt / ExpiresAt bound the token's validity.
	IssuedAt  time.Time `json:"iat"`
	ExpiresAt time.Time `json:"exp"`
}

// Covers reports whether the token may act as the requested actor: its
// own actor, or a department thereof.
func (c *Claims) Covers(actor event.Actor) bool {
	return c.Actor.Contains(actor)
}

// HasRole reports whether the claims carry a role.
func (c *Claims) HasRole(role string) bool {
	for _, r := range c.Roles {
		if r == role {
			return true
		}
	}
	return false
}

// Authority issues and verifies tokens. Safe for concurrent use.
type Authority struct {
	key []byte
}

// NewAuthority creates an authority with the given signing key.
func NewAuthority(key []byte) (*Authority, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("identity: key must be %d bytes, got %d", KeySize, len(key))
	}
	return &Authority{key: append([]byte(nil), key...)}, nil
}

// Issue mints a token for actor with the given roles and time-to-live.
func (a *Authority) Issue(actor event.Actor, roles []string, ttl time.Duration) (string, Claims, error) {
	if err := actor.Validate(); err != nil {
		return "", Claims{}, fmt.Errorf("identity: %w", err)
	}
	if ttl <= 0 {
		return "", Claims{}, errors.New("identity: non-positive ttl")
	}
	var id [12]byte
	if _, err := rand.Read(id[:]); err != nil {
		return "", Claims{}, fmt.Errorf("identity: %w", err)
	}
	now := time.Now().UTC().Truncate(time.Second)
	claims := Claims{
		TokenID:   hex.EncodeToString(id[:]),
		Actor:     actor,
		Roles:     append([]string(nil), roles...),
		IssuedAt:  now,
		ExpiresAt: now.Add(ttl),
	}
	payload, err := json.Marshal(&claims)
	if err != nil {
		return "", Claims{}, fmt.Errorf("identity: encode claims: %w", err)
	}
	body := base64.RawURLEncoding.EncodeToString(payload)
	sig := a.sign(body)
	return body + "." + sig, claims, nil
}

func (a *Authority) sign(body string) string {
	m := hmac.New(sha256.New, a.key)
	m.Write([]byte(body))
	return base64.RawURLEncoding.EncodeToString(m.Sum(nil))
}

// Verify checks a token's signature and validity window at the given
// instant (zero means now), returning its claims.
func (a *Authority) Verify(token string, at time.Time) (Claims, error) {
	if at.IsZero() {
		at = time.Now()
	}
	dot := strings.IndexByte(token, '.')
	if dot <= 0 || dot == len(token)-1 {
		return Claims{}, ErrMalformed
	}
	body, sig := token[:dot], token[dot+1:]
	want := a.sign(body)
	if !hmac.Equal([]byte(want), []byte(sig)) {
		return Claims{}, ErrSignature
	}
	payload, err := base64.RawURLEncoding.DecodeString(body)
	if err != nil {
		return Claims{}, ErrMalformed
	}
	var claims Claims
	if err := json.Unmarshal(payload, &claims); err != nil {
		return Claims{}, ErrMalformed
	}
	if at.Before(claims.IssuedAt) {
		return Claims{}, ErrNotYet
	}
	if at.After(claims.ExpiresAt) {
		return Claims{}, ErrExpired
	}
	return claims, nil
}
