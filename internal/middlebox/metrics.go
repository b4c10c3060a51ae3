// Observability plumbing for the middlebox. The middlebox always runs
// against a real obs.Registry — a private one when Config.Metrics is nil —
// so Stats() and a /metrics scrape read the same counters and can never
// disagree. The seed implementation already paid for atomic counters on
// this path; the registry handles cost the same.

package middlebox

import (
	"strconv"

	"repro/internal/obs"
)

// mbMetrics holds the middlebox's registered metric handles, resolved once
// at construction so the hot path never takes the registry lock.
type mbMetrics struct {
	reg *obs.Registry

	conns     *obs.Counter
	connErrs  *obs.Counter
	tokens    *obs.Counter
	bytes     *obs.Counter
	alerts    *obs.Counter
	blocked   *obs.Counter
	keys      *obs.Counter
	degraded  *obs.Counter
	fcDrops   *obs.Counter
	unscanned *obs.Counter

	secDropped *obs.Counter

	alertsBySID *obs.CounterVec
	shardDepth  *obs.GaugeVec
	timeouts    *obs.CounterVec
	retries     *obs.CounterVec
	resume      *obs.CounterVec

	scan      *obs.Histogram
	barrier   *obs.Histogram
	handshake *obs.Histogram
	prep      *obs.Histogram
}

func newMBMetrics(r *obs.Registry) *mbMetrics {
	if r == nil {
		r = obs.NewRegistry()
	}
	return &mbMetrics{
		reg:       r,
		conns:     r.Counter(obs.MBConnectionsTotal, obs.Help(obs.MBConnectionsTotal)),
		connErrs:  r.Counter(obs.MBConnErrorsTotal, obs.Help(obs.MBConnErrorsTotal)),
		tokens:    r.Counter(obs.MBTokensScannedTotal, obs.Help(obs.MBTokensScannedTotal)),
		bytes:     r.Counter(obs.MBBytesForwarded, obs.Help(obs.MBBytesForwarded)),
		alerts:    r.Counter(obs.MBAlertsTotal, obs.Help(obs.MBAlertsTotal)),
		blocked:   r.Counter(obs.MBBlockedTotal, obs.Help(obs.MBBlockedTotal)),
		keys:      r.Counter(obs.MBKeysRecovered, obs.Help(obs.MBKeysRecovered)),
		degraded:  r.Counter(obs.MBDegradedTotal, obs.Help(obs.MBDegradedTotal)),
		fcDrops:   r.Counter(obs.MBFailClosedDropsTotal, obs.Help(obs.MBFailClosedDropsTotal)),
		unscanned: r.Counter(obs.MBUnscannedBytes, obs.Help(obs.MBUnscannedBytes)),

		secDropped: r.Counter(obs.MBSecondaryDroppedBytes, obs.Help(obs.MBSecondaryDroppedBytes)),

		alertsBySID: r.CounterVec(obs.MBAlertsBySID, obs.Help(obs.MBAlertsBySID), "sid"),
		shardDepth:  r.GaugeVec(obs.MBShardQueueDepth, obs.Help(obs.MBShardQueueDepth), "shard"),
		timeouts:    r.CounterVec(obs.MBTimeoutsTotal, obs.Help(obs.MBTimeoutsTotal), "step"),
		retries:     r.CounterVec(obs.MBRetriesTotal, obs.Help(obs.MBRetriesTotal), "op"),
		resume:      r.CounterVec(obs.MBOTResumeTotal, obs.Help(obs.MBOTResumeTotal), "outcome"),

		scan:      r.Histogram(obs.MBScanSeconds, obs.Help(obs.MBScanSeconds), obs.LatencyBuckets),
		barrier:   r.Histogram(obs.MBBarrierWaitSeconds, obs.Help(obs.MBBarrierWaitSeconds), obs.LatencyBuckets),
		handshake: r.Histogram(obs.MBHandshakeSeconds, obs.Help(obs.MBHandshakeSeconds), obs.LatencyBuckets),
		prep:      r.Histogram(obs.MBPrepSeconds, obs.Help(obs.MBPrepSeconds), obs.LatencyBuckets),
	}
}

// ruleAlert counts one rule-match alert under its SID label.
func (m *mbMetrics) ruleAlert(sid int) {
	m.alertsBySID.With(strconv.Itoa(sid)).Inc()
}

// timeout counts one deadline expiry under its step label.
func (m *mbMetrics) timeout(step string) {
	m.timeouts.With(step).Inc()
}

// retried counts one backoff retry under its operation label.
func (m *mbMetrics) retried(op string) {
	m.retries.With(op).Inc()
}

// Metrics returns the registry backing the middlebox's counters — the one
// from Config.Metrics, or the private registry created when that was nil.
// Serving obs.AdminMux over it exposes the full middlebox catalog.
func (mb *Middlebox) Metrics() *obs.Registry {
	return mb.met.reg
}
