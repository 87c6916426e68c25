package css

import "repro/internal/gateway"

// GatewayStats reports the producer gateway's exposure counters.
func (p *Producer) GatewayStats() gateway.Stats { return p.gw.Stats() }
