package agg

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

// catalogKind tells the round-trip test how to register each catalog
// family. Every obs.Catalog entry must appear here — a new metric that
// misses the table fails the test, keeping the round-trip golden
// complete as the catalog grows.
var catalogKind = map[string]struct {
	kind  string // "counter", "gauge", "histogram", "countervec", "gaugevec"
	label string // vec label name
}{
	obs.MBConnectionsTotal:   {kind: "counter"},
	obs.MBConnErrorsTotal:    {kind: "counter"},
	obs.MBTokensScannedTotal: {kind: "counter"},
	obs.MBBytesForwarded:     {kind: "counter"},
	obs.MBAlertsTotal:        {kind: "counter"},
	obs.MBBlockedTotal:       {kind: "counter"},
	obs.MBKeysRecovered:      {kind: "counter"},
	obs.MBAlertsBySID:        {kind: "countervec", label: "sid"},
	obs.MBShardQueueDepth:    {kind: "gaugevec", label: "shard"},
	obs.MBScanSeconds:        {kind: "histogram"},
	obs.MBBarrierWaitSeconds: {kind: "histogram"},
	obs.MBHandshakeSeconds:   {kind: "histogram"},
	obs.MBPrepSeconds:        {kind: "histogram"},

	obs.MBTimeoutsTotal:        {kind: "countervec", label: "step"},
	obs.MBRetriesTotal:         {kind: "countervec", label: "op"},
	obs.MBDegradedTotal:        {kind: "counter"},
	obs.MBFailClosedDropsTotal: {kind: "counter"},
	obs.MBUnscannedBytes:       {kind: "counter"},

	obs.ObsFlowsTotal:         {kind: "countervec", label: "disposition"},
	obs.ObsRingEvictionsTotal: {kind: "counter"},

	obs.BuildInfo:  {kind: "gaugevec", label: "version"},
	obs.WorkerInfo: {kind: "gaugevec", label: "worker"},

	obs.FleetScrapesTotal:      {kind: "countervec", label: "worker"},
	obs.FleetScrapeErrorsTotal: {kind: "countervec", label: "worker"},
	obs.FleetScrapeSeconds:     {kind: "histogram"},
	obs.FleetStalenessSeconds:  {kind: "gaugevec", label: "worker"},
	obs.FleetWorkerUp:          {kind: "gaugevec", label: "worker"},
	obs.FleetSLOUp:             {kind: "gaugevec", label: "slo"},
	obs.FleetSLOBreachesTotal:  {kind: "countervec", label: "slo"},
}

// populateCatalog registers every catalog family with distinctive
// values: counters and gauges offset by their registration index,
// histograms observing values on, between and beyond their bounds,
// vecs with multiple children.
func populateCatalog(t *testing.T, r *obs.Registry) {
	t.Helper()
	names := make([]string, 0, len(obs.Catalog))
	for name := range obs.Catalog {
		names = append(names, name)
	}
	// Deterministic registration order for a stable exposition.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for i, name := range names {
		spec, ok := catalogKind[name]
		if !ok {
			t.Fatalf("catalog metric %s missing from catalogKind — extend the round-trip table", name)
		}
		help := obs.Help(name)
		switch spec.kind {
		case "counter":
			r.Counter(name, help).Add(uint64(i*7 + 1))
		case "gauge":
			r.Gauge(name, help).Set(int64(i*3 - 5))
		case "histogram":
			buckets := obs.LatencyBuckets
			h := r.Histogram(name, help, buckets)
			h.Observe(buckets[0])                      // exactly on the first bound
			h.Observe((buckets[0] + buckets[1]) / 2)   // between bounds
			h.Observe(buckets[len(buckets)-1] * 1e3)   // +Inf bucket
			h.Observe(float64(i) * buckets[0] / 10000) // sub-first-bound
		case "countervec":
			v := r.CounterVec(name, help, spec.label)
			v.With("alpha").Add(uint64(i + 1))
			v.With("beta").Add(uint64(2*i + 3))
			v.With("42").Inc()
		case "gaugevec":
			v := r.GaugeVec(name, help, spec.label)
			v.With("zero").Set(0)
			v.With("neg").Set(int64(-i - 1))
			v.With("pos").Set(int64(i * 11))
		default:
			t.Fatalf("catalogKind[%s]: unknown kind %q", name, spec.kind)
		}
	}
}

// TestRoundTrip is the exposition round-trip golden test: for every
// metric family in the catalog, Registry → WritePrometheus → Parse →
// JSONSnapshot must reproduce Registry.Snapshot exactly (compared as
// canonical JSON). This pins the text format the fleet scraper depends
// on from both sides.
func TestRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	populateCatalog(t, reg)

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("Parse of own exposition: %v", err)
	}

	want, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(expo.JSONSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Errorf("round-trip mismatch:\nregistry: %s\nparsed:   %s", want, got)
	}

	// HELP strings survive the trip too.
	for name, help := range obs.Catalog {
		f := expo.Family(name)
		if f == nil {
			t.Errorf("family %s missing after round-trip", name)
			continue
		}
		if f.Help != help {
			t.Errorf("family %s help %q, want %q", name, f.Help, help)
		}
	}
}

// TestRoundTripEscapes pins label-value and help escaping through the
// round trip: quotes, backslashes and newlines.
func TestRoundTripEscapes(t *testing.T) {
	reg := obs.NewRegistry()
	nasty := "a\"b\\c\nd\te"
	reg.CounterVec("bb_esc_total", "line one\nline \\two", "k").With(nasty).Add(9)

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("Parse: %v\nbody:\n%s", err, buf.String())
	}
	f := expo.Family("bb_esc_total")
	if f == nil {
		t.Fatal("family missing")
	}
	if f.Help != "line one\nline \\two" {
		t.Errorf("help %q", f.Help)
	}
	if v, ok := f.With(map[string]string{"k": nasty}); !ok || v != 9 {
		t.Errorf("labeled value = %v, %v", v, ok)
	}
}

// TestParseRejectsGarbage pins the failure mode the scraper relies on:
// truncated or garbage bodies fail Parse rather than half-ingesting.
func TestParseRejectsGarbage(t *testing.T) {
	bad := []struct{ name, body string }{
		{"binary garbage", "\x00\x01\x02 nonsense"},
		{"missing value", "blindbox_mb_connections_total\n"},
		{"truncated mid-line", "blindbox_mb_connections_total 4\nblindbox_mb_conn"},
		{"bad value", "blindbox_mb_connections_total pony\n"},
		{"unterminated label", `blindbox_x_total{sid="4 7` + "\n"},
		{"missing label value", "blindbox_x_total{sid} 1\n"},
		{"bad TYPE kind", "# TYPE blindbox_x_total fancy\n"},
		{"bad TYPE name", "# TYPE 9bad counter\n"},
	}
	for _, tc := range bad {
		if _, err := Parse(strings.NewReader(tc.body)); err == nil {
			t.Errorf("%s: Parse accepted %q", tc.name, tc.body)
		}
	}

	ok := []struct{ name, body string }{
		{"empty", ""},
		{"comment only", "# just a comment\n"},
		{"timestamp", "bb_x_total 4 1712345678000\n"},
		{"inf and nan", "bb_up +Inf\nbb_down -Inf\nbb_nan NaN\n"},
		{"trailing comma labels", `bb_x_total{a="1",} 2` + "\n"},
		{"no trailing newline", "bb_x_total 4"},
	}
	for _, tc := range ok {
		if _, err := Parse(strings.NewReader(tc.body)); err != nil {
			t.Errorf("%s: Parse rejected %q: %v", tc.name, tc.body, err)
		}
	}
}

// TestHistogramQuantile sanity-checks the reconstruction + quantile
// math the SLO evaluator uses.
func TestHistogramQuantile(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("bb_lat_seconds", "L.", []float64{0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.005) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // third bucket
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	hist, ok := expo.Histogram("bb_lat_seconds")
	if !ok {
		t.Fatal("histogram not reconstructed")
	}
	if hist.Count != 100 || len(hist.Bounds) != 3 || len(hist.Cum) != 4 {
		t.Fatalf("hist = %+v", hist)
	}
	if p50 := hist.Quantile(0.5); p50 > 0.01 {
		t.Errorf("p50 = %g, want <= 0.01", p50)
	}
	p99 := hist.Quantile(0.99)
	if p99 < 0.1 || p99 > 1 {
		t.Errorf("p99 = %g, want in (0.1, 1]", p99)
	}
	if !math.IsNaN((&Hist{}).Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}

	// Merge doubles every count; mismatched bounds refuse.
	clone := hist.Clone()
	if err := clone.Merge(hist); err != nil {
		t.Fatal(err)
	}
	if clone.Count != 200 || clone.Cum[0] != 180 {
		t.Errorf("merged = %+v", clone)
	}
	if err := clone.Merge(&Hist{Bounds: []float64{1}, Cum: []uint64{0, 0}}); err == nil {
		t.Error("Merge accepted mismatched bounds")
	}
}

// TestMultiLabelParse covers what /cluster/metrics itself emits: a
// worker label stacked on an existing label, and worker-labeled
// histograms reconstructed per worker.
func TestMultiLabelParse(t *testing.T) {
	body := `# TYPE blindbox_mb_alerts_by_sid_total counter
blindbox_mb_alerts_by_sid_total{worker="w1",sid="7"} 3
blindbox_mb_alerts_by_sid_total{worker="w2",sid="7"} 4
# TYPE blindbox_mb_scan_seconds histogram
blindbox_mb_scan_seconds_bucket{worker="w1",le="0.1"} 2
blindbox_mb_scan_seconds_bucket{worker="w1",le="+Inf"} 2
blindbox_mb_scan_seconds_sum{worker="w1"} 0.05
blindbox_mb_scan_seconds_count{worker="w1"} 2
`
	expo, err := Parse(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	f := expo.Family("blindbox_mb_alerts_by_sid_total")
	if v, ok := f.With(map[string]string{"worker": "w2", "sid": "7"}); !ok || v != 4 {
		t.Errorf("w2 sid 7 = %v, %v", v, ok)
	}
	h, ok := expo.Family("blindbox_mb_scan_seconds").Histogram(map[string]string{"worker": "w1"})
	if !ok || h.Count != 2 || h.Sum != 0.05 {
		t.Errorf("w1 histogram = %+v, %v", h, ok)
	}
	if _, ok := expo.Histogram("blindbox_mb_scan_seconds"); ok {
		t.Error("unlabeled histogram lookup matched a worker-labeled one")
	}
}
