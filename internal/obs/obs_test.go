package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if again := r.Counter("test_total", "help"); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("test_depth", "help")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", nil)
	cv := r.CounterVec("x_by_y_total", "", "y")
	gv := r.GaugeVec("x_by_y", "", "y")
	c.Add(1)
	c.Inc()
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	cv.With("a").Inc()
	gv.With("a").Set(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles accumulated state")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if r.Families() != nil {
		t.Fatal("nil registry produced output")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{1, 10})
	h.Observe(0.5) // <= 1
	h.Observe(1)   // le is inclusive: still the 1-bucket
	h.Observe(5)   // <= 10
	h.Observe(100) // +Inf
	cum := h.snapshot()
	if cum[0] != 2 || cum[1] != 3 || cum[2] != 4 {
		t.Fatalf("cumulative buckets = %v, want [2 3 4]", cum)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got := h.Sum(); got != 106.5 {
		t.Fatalf("sum = %g, want 106.5", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("bb_tokens_total", "Tokens seen.").Add(12)
	r.Gauge("bb_depth", "Queue depth.").Set(-3)
	r.Histogram("bb_lat_seconds", "Latency.", []float64{0.25, 1}).Observe(0.5)
	vec := r.CounterVec("bb_alerts_by_sid_total", "Alerts by SID.", "sid")
	vec.With("7").Add(2)
	vec.With("101").Inc()
	r.GaugeVec("bb_shard_depth", "Depth by shard.", "shard").With("0").Set(4)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP bb_tokens_total Tokens seen.",
		"# TYPE bb_tokens_total counter",
		"bb_tokens_total 12",
		"# HELP bb_depth Queue depth.",
		"# TYPE bb_depth gauge",
		"bb_depth -3",
		"# HELP bb_lat_seconds Latency.",
		"# TYPE bb_lat_seconds histogram",
		`bb_lat_seconds_bucket{le="0.25"} 0`,
		`bb_lat_seconds_bucket{le="1"} 1`,
		`bb_lat_seconds_bucket{le="+Inf"} 1`,
		"bb_lat_seconds_sum 0.5",
		"bb_lat_seconds_count 1",
		"# HELP bb_alerts_by_sid_total Alerts by SID.",
		"# TYPE bb_alerts_by_sid_total counter",
		`bb_alerts_by_sid_total{sid="101"} 1`,
		`bb_alerts_by_sid_total{sid="7"} 2`,
		"# HELP bb_shard_depth Depth by shard.",
		"# TYPE bb_shard_depth gauge",
		`bb_shard_depth{shard="0"} 4`,
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "C.").Add(5)
	r.Histogram("h_seconds", "", []float64{1}).Observe(2)
	r.CounterVec("v_total", "", "k").With("a").Add(9)
	got, err := json.Marshal(r.Families())
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"name":"c_total","help":"C.","type":"counter","series":[{"value":5}]},` +
		`{"name":"h_seconds","help":"","type":"histogram","series":[{"value":0,"hist":{"bounds":[1],"counts":[0,1],"sum":2,"count":1}}]},` +
		`{"name":"v_total","help":"","type":"counter","labels":["k"],"series":[{"values":["a"],"value":9}]}]`
	if string(got) != want {
		t.Errorf("/metrics.json shape:\n got %s\nwant %s", got, want)
	}
}

// TestConcurrentObserveAndScrape runs writers against every metric kind
// while scrapes proceed — the -race contract of the registry.
func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", nil)
	cv := r.CounterVec("cv_total", "", "k")
	gv := r.GaugeVec("gv", "", "k")

	const writers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := string(rune('a' + w%4))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%7) * 1e-5)
				cv.With(key).Inc()
				gv.With(key).Add(1)
			}
		}(w)
	}
	// Concurrent scrapes plus late registrations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			r.Families()
			r.Counter("late_total", "").Inc()
		}
	}()
	wg.Wait()

	if c.Value() != writers*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), writers*iters)
	}
	if h.Count() != writers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), writers*iters)
	}
	var vecTotal uint64
	for _, v := range cv.Values() {
		vecTotal += v
	}
	if vecTotal != writers*iters {
		t.Fatalf("vec total = %d, want %d", vecTotal, writers*iters)
	}
}

// TestMetricNames is the exposition lint: every catalog entry must follow
// the Prometheus name grammar and the repo's suffix conventions, and carry
// a help string. Instrumented packages register only catalog names, which
// the e2e metrics test (package blindbox) cross-checks against a live
// scrape.
func TestMetricNames(t *testing.T) {
	if len(Catalog) == 0 {
		t.Fatal("empty catalog")
	}
	for name, help := range Catalog {
		if !ValidName(name) {
			t.Errorf("%s: not a valid Prometheus metric name", name)
		}
		if !strings.HasPrefix(name, "blindbox_") {
			t.Errorf("%s: missing blindbox_ prefix", name)
		}
		if help == "" {
			t.Errorf("%s: no help string", name)
		}
		switch {
		case strings.HasSuffix(name, "_total"),
			strings.HasSuffix(name, "_seconds"),
			strings.HasSuffix(name, "_bytes"),
			strings.HasSuffix(name, "_depth"),
			strings.HasSuffix(name, "_info"),
			strings.HasSuffix(name, "_up"):
		default:
			t.Errorf("%s: name must end in _total, _seconds, _bytes, _depth, _info or _up", name)
		}
	}
	if Help(MBAlertsTotal) == "" || Help("nonexistent") != "" {
		t.Error("Help lookup misbehaves")
	}
}

// TestCatalogFamiliesHaveARunbookRow holds the catalog to its readers: a
// family is registered only if RUNBOOK.md says who reads it, and RUNBOOK.md
// names no family the code does not register. Histogram series suffixes
// (_bucket, _sum, _count) count as their family.
func TestCatalogFamiliesHaveARunbookRow(t *testing.T) {
	runbook, err := os.ReadFile(filepath.Join("..", "..", "RUNBOOK.md"))
	if err != nil {
		t.Fatal(err)
	}
	named := make(map[string]bool)
	for _, name := range regexp.MustCompile(`blindbox_[a-z_]+`).FindAllString(string(runbook), -1) {
		if _, ok := Catalog[name]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				name = strings.TrimSuffix(name, suffix)
			}
		}
		named[name] = true
	}
	for name := range Catalog {
		if !named[name] {
			t.Errorf("%s is registered but RUNBOOK.md names no reader for it", name)
		}
	}
	for name := range named {
		if _, ok := Catalog[name]; !ok {
			t.Errorf("RUNBOOK.md names %s, which is not in the catalog", name)
		}
	}
}

func TestRegisterPanicsOnBadNameAndKindConflict(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("bad name", func() { r.Counter("bad name", "") })
	mustPanic("bad label", func() { r.CounterVec("ok_total", "", "bad label") })
	r.Counter("taken_total", "")
	mustPanic("kind conflict", func() { r.Gauge("taken_total", "") })
	mustPanic("unsorted buckets", func() { r.Histogram("h_seconds", "", []float64{2, 1}) })
}

func TestAdminMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("bb_x_total", "X.").Add(2)
	srv := httptest.NewServer(AdminMux(r))
	defer srv.Close()

	get := func(path string) (int, string) {
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
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "bb_x_total 2") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, `blindbox_build_info{version="`) {
		t.Errorf("/metrics missing build_info: code %d body %q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, `"name": "bb_x_total"`) {
		t.Errorf("/metrics.json: code %d body %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz: code %d body %q", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline: code %d", code)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: code %d", code)
	}
}

// TestAdminEndpointContentTypes audits status codes and Content-Type
// headers on every AdminMux and Recorder.Mount endpoint. The fleet
// scraper and span pull client key off these; a regression here breaks
// /cluster/* silently, so the whole surface is pinned.
func TestAdminEndpointContentTypes(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(RecorderConfig{Metrics: reg})
	ctx := NewSpanCtx()
	f := rec.BeginFlowSampled(7, PartyMB, ctx, false)
	f.Emit(Span{Flow: 7, Party: PartyMB, Name: SpanScan, Start: 1, Dur: 2})
	defer f.End("")

	mux := AdminMux(reg)
	rec.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const errCT = "text/plain; charset=utf-8" // what http.Error sets
	cases := []struct {
		path string
		code int
		ct   string
	}{
		{"/metrics", 200, "text/plain; version=0.0.4; charset=utf-8"},
		{"/metrics.json", 200, "application/json"},
		{"/healthz", 200, "text/plain; charset=utf-8"},
		{"/debug/flows", 200, "application/json"},
		{"/debug/flightrecorder", 400, errCT},
		{"/debug/flightrecorder?flow=bogus", 400, errCT},
		{"/debug/flightrecorder?flow=9999", 404, errCT},
		{"/debug/flightrecorder?flow=7", 200, "application/json"},
		{"/debug/spans", 200, "application/x-ndjson"},
		{"/debug/trace", 400, errCT},
		{"/debug/trace?id=nothex", 400, errCT},
		{"/debug/trace?id=" + ctx.TraceString(), 200, "application/x-ndjson"},
		{"/debug/trace?id=00000000000000000000000000000000", 200, "application/x-ndjson"},
	}
	for _, tc := range cases {
		resp, err := srv.Client().Get(srv.URL + tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: reading body: %v", tc.path, err)
		}
		if resp.StatusCode != tc.code {
			t.Errorf("%s: code %d, want %d (body %q)", tc.path, resp.StatusCode, tc.code, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != tc.ct {
			t.Errorf("%s: Content-Type %q, want %q", tc.path, ct, tc.ct)
		}
	}

	// The matching /debug/trace pull returns the recorded span; the
	// zero-trace pull returns an empty 200 body.
	resp, err := srv.Client().Get(srv.URL + "/debug/trace?id=" + ctx.TraceString())
	if err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpans(resp.Body)
	resp.Body.Close()
	if err != nil || len(spans) != 1 || spans[0].Name != SpanScan || spans[0].TraceID != ctx.TraceString() {
		t.Fatalf("trace pull: spans %+v err %v", spans, err)
	}
}
