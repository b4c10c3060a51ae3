// The metric name catalog: every metric the BlindBox pipeline registers,
// with its help string. Packages register through these constants, and
// TestMetricNames pins the catalog — a metric outside it (or one that
// breaks the Prometheus name grammar) fails the build gate. DESIGN.md §8
// documents the same catalog for operators, and every family needs a row
// in RUNBOOK.md §3's metric reference naming what reads it
// (TestCatalogFamiliesHaveARunbookRow).

package obs

// Metric names, grouped by the subsystem that owns them. Conventions:
// every name is prefixed blindbox_<subsystem>_; counters end in _total;
// histograms end in their unit (_seconds, _bytes); vec metrics carry
// exactly one label, named in the help string.
const (
	// middlebox (label owners: sid on alerts_by_sid, shard on queue depth)
	MBConnectionsTotal   = "blindbox_mb_connections_total"
	MBConnErrorsTotal    = "blindbox_mb_conn_errors_total"
	MBTokensScannedTotal = "blindbox_mb_tokens_scanned_total"
	MBBytesForwarded     = "blindbox_mb_bytes_forwarded_total"
	MBAlertsTotal        = "blindbox_mb_alerts_total"
	MBBlockedTotal       = "blindbox_mb_blocked_total"
	MBKeysRecovered      = "blindbox_mb_keys_recovered_total"
	MBAlertsBySID        = "blindbox_mb_alerts_by_sid_total"
	MBShardQueueDepth    = "blindbox_mb_shard_queue_depth"
	MBScanSeconds        = "blindbox_mb_scan_seconds"
	MBBarrierWaitSeconds = "blindbox_mb_barrier_wait_seconds"
	MBHandshakeSeconds   = "blindbox_mb_handshake_seconds"
	MBPrepSeconds        = "blindbox_mb_prep_seconds"

	// middlebox fault-tolerance layer (label owners: step on timeouts,
	// op on retries)
	MBTimeoutsTotal        = "blindbox_mb_timeouts_total"
	MBRetriesTotal         = "blindbox_mb_retries_total"
	MBDegradedTotal        = "blindbox_mb_degraded_total"
	MBFailClosedDropsTotal = "blindbox_mb_failclosed_drops_total"
	MBUnscannedBytes       = "blindbox_mb_unscanned_bytes_total"

	// the Protocol III decryption element
	MBSecondaryDroppedBytes = "blindbox_mb_secondary_dropped_bytes_total"

	// the flight recorder watching itself (label owner: disposition on
	// flows)
	ObsFlowsTotal         = "blindbox_obs_flows_total"
	ObsRingEvictionsTotal = "blindbox_obs_ring_evictions_total"

	// process identity (label owners: version on build info, worker on
	// worker info)
	BuildInfo  = "blindbox_build_info"
	WorkerInfo = "blindbox_worker_info"

	// fleet aggregation plane (internal/obs/agg + cmd/bbfleet; label
	// owners: worker on worker_up, slo on slo_up)
	FleetWorkerUp = "blindbox_fleet_worker_up"
	FleetSLOUp    = "blindbox_fleet_slo_up"
)

// Catalog maps every canonical metric name to its help string.
var Catalog = map[string]string{
	MBConnectionsTotal:   "Connections admitted by the middlebox (monotonic, process lifetime).",
	MBConnErrorsTotal:    "Connections that failed before forwarding began (upstream dial, handshake interposition or rule preparation).",
	MBTokensScannedTotal: "Encrypted tokens received for detection across all flows.",
	MBBytesForwarded:     "Data-record payload bytes forwarded through the middlebox.",
	MBAlertsTotal:        "Detection events dispatched (keyword, rule and secondary alerts).",
	MBBlockedTotal:       "Connections severed by a block-action rule match.",
	MBKeysRecovered:      "Protocol III SSL keys recovered under probable cause.",
	MBAlertsBySID:        "Rule alerts by rule SID; label: sid.",
	MBShardQueueDepth:    "Queued detection batches per shard; label: shard.",
	MBScanSeconds:        "Detection latency of one token batch (ScanBatch).",
	MBBarrierWaitSeconds: "Time the forwarding goroutine waited on the detection barrier before a data/close record.",
	MBHandshakeSeconds:   "Middlebox hello-interposition duration per connection.",
	MBPrepSeconds:        "Obfuscated rule encryption duration per connection (both legs).",

	MBTimeoutsTotal:        "Deadline expiries by blocking step; label: step (handshake, prep, idle, write, barrier).",
	MBRetriesTotal:         "Backoff retries performed by the middlebox; label: op (dial).",
	MBDegradedTotal:        "Connections degraded to fail-open forwarding after detection became unavailable.",
	MBFailClosedDropsTotal: "Connections severed by the fail-closed policy after detection became unavailable.",
	MBUnscannedBytes:       "Data-record payload bytes forwarded without detection under fail-open degradation.",

	MBSecondaryDroppedBytes: "Protocol III payload bytes evicted unseen from a flow's pre-recovery ring before its key was recovered.",

	ObsFlowsTotal:         "Flows ended by the flight recorder by terminal disposition; label: disposition (head, tail, drop).",
	ObsRingEvictionsTotal: "Spans overwritten in full flight-recorder rings (oldest-first eviction).",

	BuildInfo:  "Build identity gauge, always 1; label: version (Go version and VCS revision from debug.ReadBuildInfo).",
	WorkerInfo: "Worker identity gauge, always 1; label: worker (the operator-assigned worker name, e.g. bbmb -worker).",

	FleetWorkerUp: "Worker health as seen by the fleet aggregator: 1 up, 0 stale, degraded or down; label: worker.",
	FleetSLOUp:    "Declared SLO status at last evaluation: 1 met, 0 breached; label: slo.",
}

// Help returns the catalog help string for name ("" when uncataloged —
// TestMetricNames rejects registrations that hit that path).
func Help(name string) string { return Catalog[name] }
