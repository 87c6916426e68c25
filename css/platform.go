package css

import (
	"time"

	"repro/internal/core"
	"repro/internal/enforcer"
	"repro/internal/gateway"
	"repro/internal/store"
)

// Re-exported sentinel errors, so callers can errors.Is against the
// public package only.
var (
	// ErrDenied reports a detail request refused by the privacy policies
	// (deny-by-default included).
	ErrDenied = enforcer.ErrDenied
	// ErrConsentDenied reports a flow blocked by the data subject's
	// consent.
	ErrConsentDenied = core.ErrConsentDeny
	// ErrSubscriptionDenied reports a subscription without an authorizing
	// policy.
	ErrSubscriptionDenied = core.ErrSubscriptionDeny
	// ErrUnknownEvent reports a request for an event id the platform
	// never assigned.
	ErrUnknownEvent = enforcer.ErrUnknownEvent
)

// Option configures NewPlatform.
type Option func(*core.Config)

// WithClock injects a clock for simulated time.
func WithClock(now func() time.Time) Option {
	return func(c *core.Config) { c.Now = now }
}

// Platform is one CSS deployment: the data controller plus the producer
// gateways created through it. Safe for concurrent use.
type Platform struct {
	ctrl *core.Controller
}

// NewPlatform creates an in-memory platform with a random master key
// and opt-out consent; see the Options.
func NewPlatform(opts ...Option) (*Platform, error) {
	cfg := core.Config{DefaultConsent: true}
	for _, o := range opts {
		o(&cfg)
	}
	ctrl, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Platform{ctrl: ctrl}, nil
}

// Close shuts the platform down.
func (p *Platform) Close() error { return p.ctrl.Close() }

// Controller exposes the underlying data controller for advanced use
// (transport binding, direct flows).
func (p *Platform) Controller() *core.Controller { return p.ctrl }

// RegisterProducer admits a data source and provisions its local
// cooperation gateway.
func (p *Platform) RegisterProducer(id ProducerID, name string) (*Producer, error) {
	if err := p.ctrl.RegisterProducer(id, name); err != nil {
		return nil, err
	}
	gw, err := gateway.New(id, store.OpenMemory(), p.ctrl.Catalog())
	if err != nil {
		return nil, err
	}
	if err := p.ctrl.AttachGateway(id, gw); err != nil {
		return nil, err
	}
	return &Producer{platform: p, id: id, gw: gw}, nil
}

// RegisterConsumer admits a consumer organization (and thereby its
// departments).
func (p *Platform) RegisterConsumer(actor Actor, name string) (*Consumer, error) {
	if err := p.ctrl.RegisterConsumer(actor, name); err != nil {
		return nil, err
	}
	return &Consumer{platform: p, actor: actor}, nil
}

// Department returns a Consumer handle for a department of an already
// registered organization (e.g. "hospital/laboratory").
func (p *Platform) Department(actor Actor) (*Consumer, error) {
	if err := actor.Validate(); err != nil {
		return nil, err
	}
	return &Consumer{platform: p, actor: actor}, nil
}

// OptOut records a denial for person, optionally scoped.
func (p *Platform) OptOut(personID string, scope ConsentScope) error {
	_, err := p.ctrl.RecordConsent(ConsentDirective{PersonID: personID, Allow: false, Scope: scope})
	return err
}

// AuditSearch queries the access log — the inquiry interface of the
// privacy guarantor.
func (p *Platform) AuditSearch(q AuditQuery) ([]AuditRecord, error) {
	return p.ctrl.Audit().Search(q)
}

// AuditVerify checks the integrity of the hash-chained access log.
func (p *Platform) AuditVerify() error { return p.ctrl.Audit().Verify() }

// Flush waits for all pending notification deliveries (useful in tests
// and batch jobs).
func (p *Platform) Flush(timeout time.Duration) bool { return p.ctrl.Flush(timeout) }
