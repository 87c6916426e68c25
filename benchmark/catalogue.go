package main

// metricDef names one reported figure. The same lists are written in
// BENCHMARK.json; a unit test keeps the two in step.
type metricDef struct {
	name, unit string
	// bound is the share of the median by which an end-to-end metric may
	// worsen (and by which two runs of one build may differ).
	bound float64
	// higher marks the few per-layer metrics for which more is better.
	higher bool
}

// endToEnd are the metrics a user of the platform would see. All are
// "lower is better".
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "request_p50_rtt", unit: "rtt", bound: 0.20},
	{name: "request_p95_rtt", unit: "rtt", bound: 0.25},
	{name: "flow_p50_rtt", unit: "rtt", bound: 0.20},
	{name: "flow_p95_rtt", unit: "rtt", bound: 0.25},
	{name: "disk_bytes_per_op", unit: "B", bound: 0.02},
	{name: "peak_rss_mb", unit: "MB", bound: 0.15},
}

// perLayer are the per-layer metrics: first the ones read from outside
// the processes during the measured phase, then the ones the traced
// in-process replay times around each layer's public functions.
var perLayer = []metricDef{
	{name: "harness.request_p50_ms", unit: "ms"},
	{name: "harness.request_p95_ms", unit: "ms"},
	{name: "harness.request_p99_ms", unit: "ms"},
	{name: "harness.flow_p50_ms", unit: "ms"},
	{name: "harness.flow_p95_ms", unit: "ms"},
	{name: "harness.flow_p99_ms", unit: "ms"},
	{name: "harness.echo_p50_ms", unit: "ms"},
	{name: "harness.flows_per_s", unit: "1/s", higher: true},
	{name: "harness.samples", unit: "count", higher: true},
	{name: "harness.cpu_ms_per_op", unit: "ms"},
	{name: "setup.preload_s", unit: "s"},
	{name: "setup.replay_s", unit: "s"},
	{name: "setup.catchup_s", unit: "s"},
	{name: "setup.warmup_s", unit: "s"},
	{name: "controller.cpu_ms_per_op", unit: "ms"},
	{name: "gateway.cpu_ms_per_op", unit: "ms"},
	{name: "follower.cpu_ms_per_op", unit: "ms"},
	{name: "controller.rss_mb", unit: "MB"},
	{name: "gateway.rss_mb", unit: "MB"},
	{name: "follower.rss_mb", unit: "MB"},
	{name: "store.index_wal_bytes_per_op", unit: "B"},
	{name: "store.audit_wal_bytes_per_op", unit: "B"},
	{name: "store.idmap_wal_bytes_per_op", unit: "B"},
	{name: "store.gateway_wal_bytes_per_op", unit: "B"},
	{name: "overload.shed", unit: "count"},
	{name: "bus.queue_depth_hwm", unit: "count"},
	{name: "bus.deliveries_failed", unit: "count"},
	{name: "consent.drops", unit: "count"},
	{name: "resilience.retries", unit: "count"},
	{name: "cluster.wrong_shard", unit: "count"},
	{name: "enforcer.decision_cache_hit_share", unit: "share", higher: true},
	{name: "gateway.detail_cache_hit_share", unit: "share", higher: true},
	{name: "index.notif_cache_hit_share", unit: "share", higher: true},
	{name: "replication.lag_bytes_p50", unit: "B"},
	{name: "replication.catchup_ms", unit: "ms"},

	{name: "transport.publish_roundtrip_us", unit: "us"},
	{name: "transport.detail_roundtrip_us", unit: "us"},
	{name: "transport.callback_post_us", unit: "us"},
	{name: "overload.admit_us", unit: "us"},
	{name: "event.encode_notification_us", unit: "us"},
	{name: "event.decode_notification_us", unit: "us"},
	{name: "event.encode_detail_us", unit: "us"},
	{name: "event.decode_detail_us", unit: "us"},
	{name: "event.notification_wire_bytes", unit: "B"},
	{name: "idmap.assign_us", unit: "us"},
	{name: "idmap.resolve_us", unit: "us"},
	{name: "index.put_us", unit: "us"},
	{name: "audit.append_us", unit: "us"},
	{name: "bus.publish_us", unit: "us"},
	{name: "bus.deliver_wait_us", unit: "us"},
	{name: "core.publish_self_us", unit: "us"},
	{name: "index.inquire_us", unit: "us"},
	{name: "index.get_us", unit: "us"},
	{name: "enforcer.decide_us", unit: "us"},
	{name: "xacml.evaluate_us", unit: "us"},
	{name: "consent.allows_us", unit: "us"},
	{name: "gateway.get_response_us", unit: "us"},
	{name: "gateway.persist_us", unit: "us"},
	{name: "core.detail_self_us", unit: "us"},
	{name: "store.commit_wait_us", unit: "us"},
	{name: "store.apply_us", unit: "us"},
	{name: "store.get_us", unit: "us"},
	{name: "store.replay_us_per_record", unit: "us"},
	{name: "store.read_wal_us", unit: "us"},
	{name: "store.apply_wal_segment_us", unit: "us"},
	{name: "cluster.owner_us", unit: "us"},
	{name: "replication.barrier_us", unit: "us"},
	{name: "trace.coverage_publish", unit: "share", higher: true},
	{name: "trace.coverage_detail", unit: "share", higher: true},
	{name: "trace.overhead_share", unit: "share"},
}
