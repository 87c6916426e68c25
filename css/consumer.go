package css

import (
	"time"

	"repro/internal/core"
	"repro/internal/event"
)

// Consumer is a consumer organizational unit: it subscribes to event
// classes, inquires the events index, and requests details with a stated
// purpose.
type Consumer struct {
	platform *Platform
	actor    Actor
}

// Subscription is a live notification subscription.
type Subscription = core.Subscription

// Subscribe registers for the notifications of a class. With no policy
// authorizing this consumer on the class, the subscription is rejected
// (deny-by-default).
func (c *Consumer) Subscribe(class ClassID, h func(n *Notification)) (*Subscription, error) {
	return c.platform.ctrl.Subscribe(c.actor, class, h)
}

// RequestDetails asks for the details of a notified event, stating the
// purpose of use. Only the fields allowed by the matching privacy policy
// are returned; everything else never leaves the producer.
func (c *Consumer) RequestDetails(id EventID, class ClassID, purpose Purpose) (*Detail, error) {
	return c.platform.ctrl.RequestDetails(&event.DetailRequest{
		Requester: c.actor,
		Class:     class,
		EventID:   id,
		Purpose:   purpose,
	})
}

// RequestDetailsAt is RequestDetails at an explicit instant (simulated
// time, validity-window evaluation).
func (c *Consumer) RequestDetailsAt(id EventID, class ClassID, purpose Purpose, at time.Time) (*Detail, error) {
	return c.platform.ctrl.RequestDetails(&event.DetailRequest{
		Requester: c.actor,
		Class:     class,
		EventID:   id,
		Purpose:   purpose,
		At:        at,
	})
}

// Inquire queries the events index for the notifications this consumer
// is authorized to see.
func (c *Consumer) Inquire(q Inquiry) ([]*Notification, error) {
	return c.platform.ctrl.InquireIndex(c.actor, q)
}
