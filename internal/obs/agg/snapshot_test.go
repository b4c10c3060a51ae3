package agg

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
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
	obs.MBOTResumeTotal:      {kind: "countervec", label: "outcome"},

	obs.MBTimeoutsTotal:        {kind: "countervec", label: "step"},
	obs.MBRetriesTotal:         {kind: "countervec", label: "op"},
	obs.MBDegradedTotal:        {kind: "counter"},
	obs.MBFailClosedDropsTotal: {kind: "counter"},
	obs.MBUnscannedBytes:       {kind: "counter"},

	obs.MBSecondaryDroppedBytes: {kind: "counter"},

	obs.ObsFlowsTotal:         {kind: "countervec", label: "disposition"},
	obs.ObsRingEvictionsTotal: {kind: "counter"},

	obs.BuildInfo:  {kind: "gaugevec", label: "version"},
	obs.WorkerInfo: {kind: "gaugevec", label: "worker"},

	obs.FleetWorkerUp: {kind: "gaugevec", label: "worker"},
	obs.FleetSLOUp:    {kind: "gaugevec", label: "slo"},
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

// parseText reads a text exposition into series -> value, keyed by the
// full series line before its value (name, histogram suffix and label
// set as rendered). It fails on a malformed line and on a family
// declared twice.
func parseText(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	declared := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			name := strings.Fields(line)[2]
			if declared[name] {
				t.Fatalf("family %s declared twice", name)
			}
			declared[name] = true
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparsable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// get fetches one admin endpoint body.
func get(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// roundTrip serves reg's admin endpoints and returns /metrics with
// Decode(/metrics.json), after checking that obs.WriteText renders the
// decoded families equal to /metrics byte for byte.
func roundTrip(t *testing.T, reg *obs.Registry) (string, *Snapshot) {
	t.Helper()
	srv := httptest.NewServer(obs.AdminMux(reg))
	defer srv.Close()

	snap, err := Decode(strings.NewReader(get(t, srv, "/metrics.json")))
	if err != nil {
		t.Fatalf("Decode of own /metrics.json: %v", err)
	}
	var got strings.Builder
	if err := obs.WriteText(&got, snap.Families); err != nil {
		t.Fatal(err)
	}
	want := get(t, srv, "/metrics")
	if got.String() != want {
		t.Errorf("round-trip mismatch:\n--- /metrics ---\n%s--- decoded ---\n%s", want, got.String())
	}
	return want, snap
}

// TestRoundTrip is the exposition round-trip golden test: for every
// catalog family, plus a 2^40 counter, Decode(/metrics.json) rendered by
// obs.WriteText equals /metrics byte for byte. This pins the JSON form
// the fleet scraper depends on from both sides.
func TestRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	populateCatalog(t, reg)
	reg.Counter("bb_big_total", "Big.").Add(1 << 40)

	text, snap := roundTrip(t, reg)
	if !strings.Contains(text, "bb_big_total 1099511627776\n") {
		t.Errorf("/metrics lacks the 2^40 counter:\n%s", text)
	}
	for name, help := range obs.Catalog {
		if f := snap.Family(name); f == nil || f.Help != help {
			t.Errorf("family %s = %+v after the round trip, want help %q", name, f, help)
		}
	}
}

// TestRoundTripEscapes pins label-value and help escaping through the
// /metrics.json -> Decode -> obs.WriteText round trip: quotes,
// backslashes, newlines and tabs come back as the same strings and are
// rendered escaped as in /metrics.
func TestRoundTripEscapes(t *testing.T) {
	reg := obs.NewRegistry()
	nasty := "a\"b\\c\nd\te"
	reg.CounterVec("bb_esc_total", "line one\nline \\two", "k").With(nasty).Add(9)

	text, snap := roundTrip(t, reg)
	for _, line := range []string{
		`bb_esc_total{k="a\"b\\c\nd\te"} 9`,
		`# HELP bb_esc_total line one\nline \\two`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	f := snap.Family("bb_esc_total")
	if f == nil {
		t.Fatal("family missing")
	}
	if f.Help != "line one\nline \\two" {
		t.Errorf("help %q", f.Help)
	}
	if v := snap.Labeled("bb_esc_total")[nasty]; v != 9 {
		t.Errorf("escaped label value = %v, want 9", v)
	}
}

// TestDecodeRejects pins the failure mode the scraper relies on: every
// check Decode makes rejects the whole body.
func TestDecodeRejects(t *testing.T) {
	const counter = `{"name":"bb_x_total","help":"","type":"counter","series":[{"value":1}]}`
	hist := func(h string) string {
		return `[{"name":"bb_lat_seconds","help":"","type":"histogram","series":[{"value":0,"hist":` + h + `}]}]`
	}
	bad := []struct{ name, body string }{
		{"not JSON", "\x00\x01 garbage"},
		{"truncated", `[` + counter[:30]},
		{"over the size limit", "[" + strings.Repeat(" ", maxBody) + "]"},
		{"unknown field", `[{"name":"bb_x_total","help":"","type":"counter","series":[],"unit":"s"}]`},
		{"data after the list", `[` + counter + `] []`},
		{"invalid family name", `[{"name":"9bad","help":"","type":"counter","series":[]}]`},
		{"unknown type", `[{"name":"bb_x","help":"","type":"summary","series":[]}]`},
		{"label named le", `[{"name":"bb_x_total","help":"","type":"counter","labels":["le"],"series":[]}]`},
		{"label named exported_worker", `[{"name":"bb_x_total","help":"","type":"counter","labels":["exported_worker"],"series":[]}]`},
		{"invalid label name", `[{"name":"bb_x_total","help":"","type":"counter","labels":["a b"],"series":[]}]`},
		{"repeated label", `[{"name":"bb_x_total","help":"","type":"counter","labels":["a","a"],"series":[]}]`},
		{"label values short", `[{"name":"bb_x_total","help":"","type":"counter","labels":["a"],"series":[{"value":1}]}]`},
		{"histogram on a counter", `[{"name":"bb_x_total","help":"","type":"counter","series":[{"value":0,"hist":{"bounds":[],"counts":[0],"sum":0,"count":0}}]}]`},
		{"histogram missing", `[{"name":"bb_lat_seconds","help":"","type":"histogram","series":[{"value":1}]}]`},
		{"counts one short", hist(`{"bounds":[1,2],"counts":[1,1],"sum":1,"count":1}`)},
		{"bounds not ascending", hist(`{"bounds":[2,1],"counts":[0,0,0],"sum":0,"count":0}`)},
		{"counts not cumulative", hist(`{"bounds":[1],"counts":[2,1],"sum":1,"count":1}`)},
		{"+Inf bucket is not count", hist(`{"bounds":[1],"counts":[1,1],"sum":1,"count":2}`)},
		{"family twice", `[` + counter + `,` + counter + `]`},
	}
	for _, tc := range bad {
		if _, err := Decode(strings.NewReader(tc.body)); err == nil {
			t.Errorf("%s: Decode accepted the body", tc.name)
		}
	}
	for _, body := range []string{"[]", "[" + counter + "]\n", hist(`{"bounds":[1],"counts":[1,1],"sum":1,"count":1}`)} {
		if _, err := Decode(strings.NewReader(body)); err != nil {
			t.Errorf("Decode rejected %s: %v", body, err)
		}
	}
}

// TestHistogramQuantile sanity-checks the quantile and merge arithmetic
// the SLO evaluator and the rollups use.
func TestHistogramQuantile(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("bb_lat_seconds", "L.", []float64{0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.005) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // third bucket
	}
	hist := reg.Families()[0].Series[0].Hist
	if hist.Count != 100 || len(hist.Bounds) != 3 || len(hist.Counts) != 4 {
		t.Fatalf("hist = %+v", hist)
	}
	if p50 := quantile(hist, 0.5); p50 > 0.01 {
		t.Errorf("p50 = %g, want <= 0.01", p50)
	}
	p99 := quantile(hist, 0.99)
	if p99 < 0.1 || p99 > 1 {
		t.Errorf("p99 = %g, want in (0.1, 1]", p99)
	}
	if !math.IsNaN(quantile(&obs.Hist{}, 0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}

	// Merge doubles every count and leaves its inputs as they were;
	// mismatched bounds refuse.
	before := *hist
	before.Counts = append([]uint64(nil), hist.Counts...)
	merged, err := mergeHist(hist, hist)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Count != 200 || merged.Counts[0] != 180 || merged.Sum != 2*hist.Sum {
		t.Errorf("merged = %+v", merged)
	}
	if !reflect.DeepEqual(*hist, before) {
		t.Errorf("mergeHist modified its input: %+v, was %+v", *hist, before)
	}
	if _, err := mergeHist(merged, &obs.Hist{Bounds: []float64{1}, Counts: []uint64{0, 0}}); err == nil {
		t.Error("mergeHist accepted a different bound count")
	}
	if _, err := mergeHist(merged, &obs.Hist{Bounds: []float64{0.01, 0.2, 1}, Counts: []uint64{0, 0, 0, 0}}); err == nil {
		t.Error("mergeHist accepted different bounds")
	}
}

// exposLine is one rendered line: a comment, or name{labels} value.
var exposLine = regexp.MustCompile(`^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_:][a-zA-Z0-9_:]*="([^"\\]|\\.)*"(,[a-zA-Z_:][a-zA-Z0-9_:]*="([^"\\]|\\.)*")*\})? \S+)$`)

// FuzzDecode holds Decode to its contract: arbitrary bytes are either
// rejected, or decode to a snapshot that two workers' worth of
// /cluster/metrics renders without panicking, line by line well-formed.
func FuzzDecode(f *testing.F) {
	// A small worker registry keeps the seeds, and so their
	// minimization, short.
	reg := obs.NewRegistry()
	reg.Counter(obs.MBTokensScannedTotal, obs.Help(obs.MBTokensScannedTotal)).Add(68)
	reg.CounterVec(obs.MBAlertsBySID, obs.Help(obs.MBAlertsBySID), "sid").With("7").Add(2)
	reg.GaugeVec(obs.WorkerInfo, obs.Help(obs.WorkerInfo), "worker").With("w1").Set(1)
	reg.Histogram(obs.MBScanSeconds, obs.Help(obs.MBScanSeconds), []float64{0.001, 0.1}).Observe(0.002)
	served, err := json.MarshalIndent(reg.Families(), "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	const counter = `{"name":"bb_x_total","help":"","type":"counter","series":[{"value":1}]}`
	f.Add(served)
	f.Add(served[:len(served)/2])
	f.Add([]byte(`[` + counter + `,` + counter + `]`))
	f.Add([]byte(`[{"name":"bb_lat_seconds","help":"","type":"histogram","series":[{"hist":{"bounds":[1,2],"counts":[1,1],"sum":1,"count":1}}]}]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		snap, err := Decode(bytes.NewReader(body))
		if err != nil {
			return
		}
		s, err := New(Config{Targets: []Target{{Name: "w1", URL: "http://w1"}, {Name: "w2", URL: "http://w2"}}, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range s.workers {
			w.snaps = []timedSnapshot{{snap: snap}}
		}
		var out strings.Builder
		if err := s.WriteClusterMetrics(&out); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
			if !exposLine.MatchString(line) {
				t.Fatalf("malformed line %q", line)
			}
		}
	})
}
