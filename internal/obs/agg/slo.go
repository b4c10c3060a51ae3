// Declarative SLO evaluation over scraped worker metrics. An SLO is a
// (kind, metric, threshold) triple evaluated against the fleet-merged
// latest snapshots: a histogram quantile bound (p99 scan latency), a
// cumulative budget (unscanned bytes), or a counter ratio (connection
// error rate). Every kind is computable from one scrape round, so
// `bbfleet -check` needs exactly one round before flipping its exit
// code; continuous runs re-evaluate per render and export the verdicts
// as blindbox_fleet_slo_up.

package agg

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/obs"
)

// JSONFloat is a float64 whose JSON encoding tolerates the non-finite
// values SLO evaluation produces (null for NaN, quoted "+Inf"/"-Inf"),
// which encoding/json otherwise refuses to marshal.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte("null"), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// SLOKind selects how an SLO's value is computed.
type SLOKind string

// The SLO kinds.
const (
	// SLOQuantileMax bounds a histogram quantile: Quantile of the
	// fleet-merged Metric histogram must be <= Threshold.
	SLOQuantileMax SLOKind = "quantile_max"
	// SLOTotalMax bounds a cumulative budget: the fleet sum of the
	// Metric counter/gauge must be <= Threshold.
	SLOTotalMax SLOKind = "total_max"
	// SLORatioMax bounds an error rate: fleet sum of Metric divided by
	// fleet sum of Denom must be <= Threshold (0/0 counts as 0).
	SLORatioMax SLOKind = "ratio_max"
)

// SLO is one declared service-level objective.
type SLO struct {
	// Name labels the objective (the slo label value), e.g. "scan_p99".
	Name string `json:"name"`
	// Kind selects the evaluation rule.
	Kind SLOKind `json:"kind"`
	// Metric is the scraped family the objective reads.
	Metric string `json:"metric"`
	// Denom is the denominator family (SLORatioMax only).
	Denom string `json:"denom,omitempty"`
	// Quantile is the quantile in (0,1) (SLOQuantileMax only).
	Quantile float64 `json:"quantile,omitempty"`
	// Threshold is the bound the computed value must not exceed.
	Threshold float64 `json:"threshold"`
}

// SLOResult is one evaluated objective.
type SLOResult struct {
	SLO
	// Value is the computed quantity (NaN when no worker exposed the
	// metric yet — which evaluates as met, not breached: an idle fleet
	// has no latency to bound).
	Value JSONFloat `json:"value"`
	// OK reports whether the objective held.
	OK bool `json:"ok"`
	// Workers counts the snapshots that contributed to Value.
	Workers int `json:"workers"`
}

// DefaultSLOs returns the stock objectives: p99 scan latency under
// 100 ms, a zero unscanned-bytes budget, connection error rate under
// 5%, and a zero fail-closed drop budget. cmd/bbfleet exposes knobs for
// each threshold (negative disables the objective).
func DefaultSLOs() []SLO {
	return []SLO{
		{Name: "scan_p99", Kind: SLOQuantileMax, Metric: "blindbox_mb_scan_seconds", Quantile: 0.99, Threshold: 0.1},
		{Name: "unscanned_bytes", Kind: SLOTotalMax, Metric: "blindbox_mb_unscanned_bytes_total", Threshold: 0},
		{Name: "conn_error_ratio", Kind: SLORatioMax, Metric: "blindbox_mb_conn_errors_total", Denom: "blindbox_mb_connections_total", Threshold: 0.05},
		{Name: "failclosed_drops", Kind: SLOTotalMax, Metric: "blindbox_mb_failclosed_drops_total", Threshold: 0},
	}
}

// EvaluateSLOs computes every objective against the latest snapshot per
// worker. Unknown kinds evaluate as breached (a typo'd declaration must
// not silently pass).
func EvaluateSLOs(slos []SLO, snaps map[string]*Snapshot) []SLOResult {
	out := make([]SLOResult, 0, len(slos))
	for _, slo := range slos {
		out = append(out, evaluateSLO(slo, snaps))
	}
	return out
}

// evaluateSLO computes one objective.
func evaluateSLO(slo SLO, snaps map[string]*Snapshot) SLOResult {
	res := SLOResult{SLO: slo}
	value := math.NaN()
	switch slo.Kind {
	case SLOQuantileMax:
		var merged *obs.Hist
		for _, name := range sortedKeys(snaps) {
			h, ok := snaps[name].Histogram(slo.Metric)
			if !ok {
				continue
			}
			res.Workers++
			if merged == nil {
				merged = h
				continue
			}
			var err error
			if merged, err = mergeHist(merged, h); err != nil {
				// Bound skew across workers: evaluate conservatively as
				// a breach and surface the reason in the value.
				res.OK = false
				res.Value = JSONFloat(math.Inf(1))
				return res
			}
		}
		if merged != nil && merged.Count > 0 {
			value = quantile(merged, slo.Quantile)
		}
	case SLOTotalMax:
		value, res.Workers = fleetSum(slo.Metric, snaps)
	case SLORatioMax:
		num, n := fleetSum(slo.Metric, snaps)
		den, _ := fleetSum(slo.Denom, snaps)
		res.Workers = n
		switch {
		case den > 0:
			value = num / den
		case num > 0:
			value = math.Inf(1)
		default:
			value = 0
		}
	default:
		res.Value = JSONFloat(math.Inf(1))
		res.OK = false
		return res
	}
	// NaN (no data) evaluates as met: an unexercised objective is not a
	// breach. Everything else is a plain threshold comparison.
	res.Value = JSONFloat(value)
	res.OK = math.IsNaN(value) || value <= slo.Threshold
	return res
}

// fleetSum sums one scalar family across workers, counting contributors.
func fleetSum(metric string, snaps map[string]*Snapshot) (float64, int) {
	var total float64
	n := 0
	for _, name := range sortedKeys(snaps) {
		if v, ok := snaps[name].Value(metric); ok {
			total += v
			n++
		}
	}
	return total, n
}

// String renders the objective compactly for -check output.
func (r SLOResult) String() string {
	verdict := "ok"
	if !r.OK {
		verdict = "BREACH"
	}
	return fmt.Sprintf("%-18s %-12s value=%g threshold=%g workers=%d %s",
		r.Name, string(r.Kind), float64(r.Value), r.Threshold, r.Workers, verdict)
}
