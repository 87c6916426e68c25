package overload

// InFlight reports the number of currently admitted requests.
func (g *Gate) InFlight() int { return int(g.inflight.Load()) }

// Draining reports whether BeginDrain was called.
func (g *Gate) Draining() bool { return g.draining.Load() }
