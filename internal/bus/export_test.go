package bus

// Stats returns a snapshot of the broker counters.
func (b *Broker) Stats() Stats {
	return Stats{
		Published:  b.published.Load(),
		Delivered:  b.delivered.Load(),
		Failed:     b.failed.Load(),
		Overflowed: b.overflow.Load(),
		QueueDepth: b.depth.Load(),
		QueueHWM:   b.depthHWM.Load(),
	}
}

// Subscriptions returns the subscription names currently registered on a
// topic, in unspecified order.
func (b *Broker) Subscriptions(topic string) []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	names := make([]string, 0, len(b.topics[topic]))
	for n := range b.topics[topic] {
		names = append(names, n)
	}
	return names
}

// Pending returns the number of queued, not-yet-delivered messages.
func (s *Subscription) Pending() int {
	queued, _ := s.busy()
	return queued
}
