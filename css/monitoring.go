package css

import (
	"fmt"
	"time"

	"repro/internal/process"
)

// Process-monitoring facade: the platform's purpose in the paper is to
// let a governing body monitor multi-organization care processes. A
// ProcessMonitor subscribes — under the monitoring body's own consumer
// identity, so deny-by-default and consent apply unchanged — to every
// event class its pathways mention, and tracks pathway instances from the
// notification stream alone (no sensitive details involved).

// Pathway declares a monitored care process.
type Pathway = process.Pathway

// PathwayStage is one expected step of a pathway.
type PathwayStage = process.Stage

// PathwayInstance is the tracked progress of one person through one
// pathway.
type PathwayInstance = process.Instance

// PathwayReport is a snapshot of all instances.
type PathwayReport = process.Report

// ProcessMonitor tracks pathway instances from live notifications.
type ProcessMonitor struct {
	monitor *process.Monitor
	subs    []*Subscription
}

// MonitorProcesses starts monitoring the given pathways as the consumer.
// The consumer must be authorized (hold policies) on every event class
// the pathways mention — monitoring is an access like any other.
func (c *Consumer) MonitorProcesses(pathways ...*Pathway) (*ProcessMonitor, error) {
	monitor, err := process.NewMonitor(pathways...)
	if err != nil {
		return nil, err
	}
	classes := map[ClassID]bool{}
	for _, p := range pathways {
		classes[p.Trigger] = true
		for _, s := range p.Stages {
			classes[s.Class] = true
		}
	}
	pm := &ProcessMonitor{monitor: monitor}
	for class := range classes {
		sub, err := c.Subscribe(class, func(n *Notification) {
			monitor.Observe(n)
		})
		if err != nil {
			pm.Stop()
			return nil, fmt.Errorf("css: monitoring %s: %w", class, err)
		}
		pm.subs = append(pm.subs, sub)
	}
	return pm, nil
}

// Snapshot classifies every instance at the given instant.
func (m *ProcessMonitor) Snapshot(now time.Time) PathwayReport {
	return m.monitor.Snapshot(now)
}

// Stop cancels the monitor's subscriptions.
func (m *ProcessMonitor) Stop() {
	for _, s := range m.subs {
		s.Cancel()
	}
	m.subs = nil
}
