package agg

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// newTestScraper wires a scraper over the given fixtures with a fast
// single-attempt retry.
func newTestScraper(t *testing.T, fixtures map[string]*workerFixture) *Scraper {
	t.Helper()
	var targets []Target
	for _, name := range sortedKeys(fixtures) {
		targets = append(targets, Target{Name: name, URL: fixtures[name].srv.URL})
	}
	s, err := New(Config{Targets: targets, Retry: quickRetry, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestClusterMetricsMergeAndRollups(t *testing.T) {
	w1 := newWorkerFixture(t)
	w2 := newWorkerFixture(t)
	w1.reg.Counter(obs.MBTokensScannedTotal, obs.Help(obs.MBTokensScannedTotal)).Add(100)
	w2.reg.Counter(obs.MBTokensScannedTotal, obs.Help(obs.MBTokensScannedTotal)).Add(23)
	w1.reg.CounterVec(obs.MBAlertsBySID, obs.Help(obs.MBAlertsBySID), "sid").With("7").Add(2)
	w2.reg.CounterVec(obs.MBAlertsBySID, obs.Help(obs.MBAlertsBySID), "sid").With("7").Add(3)
	h1 := w1.reg.Histogram(obs.MBScanSeconds, obs.Help(obs.MBScanSeconds), obs.LatencyBuckets)
	h2 := w2.reg.Histogram(obs.MBScanSeconds, obs.Help(obs.MBScanSeconds), obs.LatencyBuckets)
	h1.Observe(0.002)
	h1.Observe(0.004)
	h2.Observe(0.008)

	s := newTestScraper(t, map[string]*workerFixture{"w1": w1, "w2": w2})
	if err := s.ScrapeOnce(nil); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := s.WriteClusterMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	// The merged body parses, line by line, with no family declared
	// twice.
	series := parseText(t, buf.String())

	// Per-worker series and the fleet rollup.
	for key, want := range map[string]float64{
		`blindbox_mb_tokens_scanned_total{worker="w1"}`:           100,
		`blindbox_mb_tokens_scanned_total{worker="w2"}`:           23,
		`blindbox_mb_tokens_scanned_total{worker="fleet"}`:        123,
		`blindbox_mb_alerts_by_sid_total{worker="fleet",sid="7"}`: 5,
	} {
		if v, ok := series[key]; !ok || v != want {
			t.Errorf("%s = %v, %v (want %g)", key, v, ok, want)
		}
	}
	// Histogram rollup: bucket counts, sum and count sum pointwise.
	if v := series[`blindbox_mb_scan_seconds_count{worker="fleet"}`]; v != 3 {
		t.Fatalf("fleet scan histogram count = %v, want 3", v)
	}
	if v := series[`blindbox_mb_scan_seconds_bucket{worker="fleet",le="0.0025"}`]; v != 1 {
		t.Errorf("fleet scan histogram le=0.0025 = %v, want 1", v)
	}
	if v := series[`blindbox_mb_scan_seconds_sum{worker="fleet"}`]; math.Abs(v-0.014) > 1e-9 {
		t.Errorf("fleet scan sum = %g, want ~0.014", v)
	}

	// The aggregator's own registry rides along: the health and SLO
	// gauges refreshed by the round and the render.
	if v, ok := series[`blindbox_fleet_worker_up{worker="w1"}`]; !ok || v != 1 {
		t.Errorf("own registry missing: worker_up{w1} = %v, %v, want 1", v, ok)
	}
	if v := series[`blindbox_fleet_slo_up{slo="scan_p99"}`]; v != 1 {
		t.Errorf("slo_up{scan_p99} = %v, want 1", v)
	}
}

// TestClusterMetricsShapeDisagreements: a worker whose family has a
// different type or label set from the first worker's contributes no
// series to it, and a histogram whose bounds differ across workers gets
// no fleet series.
func TestClusterMetricsShapeDisagreements(t *testing.T) {
	w1 := newWorkerFixture(t)
	w2 := newWorkerFixture(t)
	w1.reg.Counter("bb_kind", "K.").Add(4)
	w2.reg.Gauge("bb_kind", "K.").Set(5)
	w1.reg.CounterVec("bb_labels_total", "L.", "a").With("x").Add(6)
	w2.reg.CounterVec("bb_labels_total", "L.", "b").With("x").Add(7)
	w1.reg.Histogram("bb_lat_seconds", "H.", []float64{1}).Observe(0.5)
	w2.reg.Histogram("bb_lat_seconds", "H.", []float64{2}).Observe(0.5)

	s := newTestScraper(t, map[string]*workerFixture{"w1": w1, "w2": w2})
	if err := s.ScrapeOnce(nil); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := s.WriteClusterMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	series := parseText(t, body)
	for key, want := range map[string]float64{
		`bb_kind{worker="w1"}`:                      4,
		`bb_kind{worker="fleet"}`:                   4,
		`bb_labels_total{worker="w1",a="x"}`:        6,
		`bb_labels_total{worker="fleet",a="x"}`:     6,
		`bb_lat_seconds_count{worker="w1"}`:         1,
		`bb_lat_seconds_count{worker="w2"}`:         1,
		`bb_lat_seconds_bucket{worker="w2",le="2"}`: 1,
	} {
		if v, ok := series[key]; !ok || v != want {
			t.Errorf("%s = %v, %v (want %g)", key, v, ok, want)
		}
	}
	for _, absent := range []string{`bb_kind{worker="w2"}`, `worker="w2",b="x"`, `bb_lat_seconds_count{worker="fleet"}`, `bb_lat_seconds_bucket{worker="fleet"`} {
		if strings.Contains(body, absent) {
			t.Errorf("merged body has %s:\n%s", absent, body)
		}
	}
	if !strings.Contains(body, "# TYPE bb_kind counter\n") {
		t.Errorf("bb_kind lost the first worker's type:\n%s", body)
	}
}

func TestSLOEvaluationBreachFlipsCheck(t *testing.T) {
	w := newWorkerFixture(t)
	w.reg.Counter(obs.MBConnectionsTotal, obs.Help(obs.MBConnectionsTotal)).Add(50)
	unscanned := w.reg.Counter(obs.MBUnscannedBytes, obs.Help(obs.MBUnscannedBytes))

	s := newTestScraper(t, map[string]*workerFixture{"w1": w})
	if err := s.ScrapeOnce(nil); err != nil {
		t.Fatal(err)
	}
	if rep := s.Check(); !rep.OK {
		t.Fatalf("healthy fleet check failed: %+v", rep.SLOs)
	}

	// A chaos-style fail-open degradation blows the unscanned-bytes
	// budget; the check verdict must flip.
	unscanned.Add(4096)
	if err := s.ScrapeOnce(nil); err != nil {
		t.Fatal(err)
	}
	rep := s.Check()
	if rep.OK {
		t.Fatal("check stayed OK with a breached unscanned-bytes budget")
	}
	var found bool
	for _, r := range rep.SLOs {
		if r.Name == "unscanned_bytes" {
			found = true
			if r.OK || float64(r.Value) != 4096 {
				t.Errorf("unscanned_bytes = %+v", r)
			}
		}
	}
	if !found {
		t.Fatal("unscanned_bytes SLO missing from report")
	}

	// The breach is exported on the aggregator's registry.
	var buf strings.Builder
	if err := s.cfg.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if v, ok := parseText(t, buf.String())[`blindbox_fleet_slo_up{slo="unscanned_bytes"}`]; !ok || v != 0 {
		t.Errorf("slo_up{unscanned_bytes} = %v, %v, want 0", v, ok)
	}

	// The check report must survive JSON encoding even with NaN SLO
	// values (no scan histogram was ever scraped here).
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("check report does not marshal: %v", err)
	}
}

// snapshotOf serves fams the way a worker does and decodes them.
func snapshotOf(t *testing.T, fams ...obs.Family) *Snapshot {
	t.Helper()
	body, err := json.Marshal(fams)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Decode(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestSLOQuantileAndRatioKinds(t *testing.T) {
	snaps := map[string]*Snapshot{"w1": snapshotOf(t,
		obs.Family{Name: "blindbox_mb_scan_seconds", Type: "histogram", Series: []obs.Series{
			{Hist: &obs.Hist{Bounds: []float64{0.01, 1}, Counts: []uint64{90, 100, 100}, Sum: 5.5, Count: 100}},
		}},
		obs.Family{Name: "blindbox_mb_conn_errors_total", Type: "counter", Series: []obs.Series{{Value: 10}}},
		obs.Family{Name: "blindbox_mb_connections_total", Type: "counter", Series: []obs.Series{{Value: 100}}},
	)}

	byName := map[string]SLOResult{}
	for _, r := range EvaluateSLOs(DefaultSLOs(), snaps) {
		byName[r.Name] = r
	}
	// p99 lands in the (0.01, 1] bucket: far over the 100 ms bound.
	if r := byName["scan_p99"]; r.OK || float64(r.Value) <= 0.1 {
		t.Errorf("scan_p99 = %+v, want breach", r)
	}
	// 10% connection errors breach the 5% ratio bound.
	if r := byName["conn_error_ratio"]; r.OK || float64(r.Value) != 0.1 {
		t.Errorf("conn_error_ratio = %+v, want breach at 0.1", r)
	}
	// No data at all: objectives evaluate as met, not breached.
	for _, r := range EvaluateSLOs(DefaultSLOs(), nil) {
		if !r.OK {
			t.Errorf("no-data SLO %s breached: %+v", r.Name, r)
		}
	}
	// An unknown kind must not silently pass.
	if bad := EvaluateSLOs([]SLO{{Name: "typo", Kind: "nonsense", Threshold: 1}}, snaps); bad[0].OK {
		t.Error("unknown SLO kind evaluated as met")
	}
}

func TestClusterTraceAssemblesAcrossWorkers(t *testing.T) {
	// One flow whose live flight-recorder spans are split across two
	// workers under a shared trace: the root conn span and a scan span
	// on w1, a forward span on w2. /cluster/trace must pull both rings
	// and assemble a single acyclic tree.
	ctx := obs.NewSpanCtx()
	base := time.Now().UnixNano()

	mkWorker := func(flow uint64, spans ...obs.Span) *workerFixture {
		reg := obs.NewRegistry()
		mux := obs.AdminMux(reg)
		rec := obs.NewRecorder(obs.RecorderConfig{Metrics: reg})
		rec.Mount(mux)
		f := rec.BeginFlowSampled(flow, obs.PartyMB, ctx, false)
		for _, sp := range spans {
			f.Emit(sp)
		}
		t.Cleanup(func() { f.End("") })
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return &workerFixture{reg: reg, srv: srv}
	}

	root := obs.Span{Flow: 1, Party: obs.PartyMB, Name: obs.SpanConn, Start: base, Dur: int64(time.Second)}
	ctx.Stamp(&root) // root context: Parent 0
	scan := obs.Span{Flow: 1, Party: obs.PartyMB, Name: obs.SpanScan, Start: base + 1000, Dur: int64(time.Millisecond), Tokens: 8}
	ctx.Child().Stamp(&scan)
	fwd := obs.Span{Flow: 2, Party: obs.PartyMB, Name: obs.SpanForward, Start: base + 2000, Dur: int64(time.Millisecond)}
	ctx.Child().Stamp(&fwd)

	w1 := mkWorker(1, root, scan)
	w2 := mkWorker(2, fwd)
	s := newTestScraper(t, map[string]*workerFixture{"w1": w1, "w2": w2})
	srv := httptest.NewServer(s.Mux())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/cluster/trace?id=" + ctx.TraceString())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("/cluster/trace: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var tr TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Trace != ctx.TraceString() || tr.Spans != 3 || tr.Orphans != 0 || tr.Partial {
		t.Fatalf("trace response = %+v", tr)
	}
	if len(tr.Workers) != 2 || tr.Workers[0] != "w1" || tr.Workers[1] != "w2" {
		t.Fatalf("contributing workers = %v, want [w1 w2]", tr.Workers)
	}
	if len(tr.Tree) != 3 {
		t.Fatalf("tree has %d nodes, want 3", len(tr.Tree))
	}
	// Preorder tree shape: one root at depth 0, every later node at
	// most one level deeper than its predecessor — acyclic by
	// construction.
	if tr.Tree[0].Depth != 0 || tr.Tree[0].Span.Name != obs.SpanConn {
		t.Fatalf("root node = %+v", tr.Tree[0])
	}
	for i := 1; i < len(tr.Tree); i++ {
		if d := tr.Tree[i].Depth; d < 1 || d > tr.Tree[i-1].Depth+1 {
			t.Errorf("node %d depth %d breaks preorder", i, d)
		}
	}
	if tr.WallNs != int64(time.Second) {
		t.Errorf("wall = %d, want 1s", tr.WallNs)
	}

	// Error paths: missing, malformed and unknown IDs.
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/cluster/trace", 400},
		{"/cluster/trace?id=zz", 400},
		{"/cluster/trace?id=ffffffffffffffffffffffffffffffff", 404},
	} {
		resp, err := srv.Client().Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.code)
		}
	}

	// Every worker unreachable: the pull error surfaces as 502.
	w1.srv.Close()
	w2.srv.Close()
	resp2, err := srv.Client().Get(srv.URL + "/cluster/trace?id=" + ctx.TraceString())
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 502 {
		t.Errorf("all workers down: status %d, want 502", resp2.StatusCode)
	}
}

// TestConcurrentScrapeAndRender exercises the scraper's locking under
// the race detector: periodic scrapes racing /cluster/metrics renders,
// health reads and SLO evaluation.
func TestConcurrentScrapeAndRender(t *testing.T) {
	w1 := newWorkerFixture(t)
	w2 := newWorkerFixture(t)
	c1 := w1.reg.Counter(obs.MBTokensScannedTotal, obs.Help(obs.MBTokensScannedTotal))
	c2 := w2.reg.Counter(obs.MBTokensScannedTotal, obs.Help(obs.MBTokensScannedTotal))

	s, err := New(Config{
		Targets:  []Target{{Name: "w1", URL: w1.srv.URL}, {Name: "w2", URL: w2.srv.URL}},
		Interval: time.Millisecond,
		Retry:    quickRetry,
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		s.Run(stop)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			c1.Add(3)
			c2.Add(5)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := s.WriteClusterMetrics(io.Discard); err != nil {
				t.Errorf("render: %v", err)
				return
			}
			s.Workers()
			s.Check()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Sanity: the final render still parses and rolls up the settled
	// totals.
	if err := s.ScrapeOnce(nil); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := s.WriteClusterMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if v, ok := parseText(t, buf.String())[`blindbox_mb_tokens_scanned_total{worker="fleet"}`]; !ok || v != 6000+10000 {
		t.Errorf("final fleet tokens = %v, %v, want 16000", v, ok)
	}
}
