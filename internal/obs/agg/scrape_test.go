package agg

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
)

// fakeClock is an injectable clock for staleness-aging tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// workerFixture is one fake worker: a live registry behind a real
// admin mux.
type workerFixture struct {
	reg *obs.Registry
	srv *httptest.Server
}

func newWorkerFixture(t *testing.T) *workerFixture {
	t.Helper()
	reg := obs.NewRegistry()
	srv := httptest.NewServer(obs.AdminMux(reg))
	t.Cleanup(srv.Close)
	return &workerFixture{reg: reg, srv: srv}
}

// quickRetry is a fast, single-attempt policy for failure tests.
var quickRetry = retry.Policy{Attempts: 1, Base: time.Millisecond, Max: time.Millisecond}

func TestScraperRatesAndStates(t *testing.T) {
	w := newWorkerFixture(t)
	tokens := w.reg.Counter(obs.MBTokensScannedTotal, "t")
	alerts := w.reg.Counter(obs.MBAlertsTotal, "a")
	depth := w.reg.GaugeVec(obs.MBShardQueueDepth, "d", "shard")
	degraded := w.reg.Counter(obs.MBDegradedTotal, "g")
	tokens.Add(1000)
	depth.With("0").Set(3)
	depth.With("1").Set(4)

	clock := newFakeClock()
	s, err := New(Config{
		Targets:  []Target{{Name: "w1", URL: w.srv.URL}},
		Interval: time.Second,
		Retry:    quickRetry,
		Metrics:  obs.NewRegistry(),
		Now:      clock.Now,
		Client:   w.srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := s.ScrapeOnce(nil); err != nil {
		t.Fatalf("first scrape: %v", err)
	}
	h := s.Workers()[0]
	if h.State != StateUp {
		t.Fatalf("state after first scrape = %s, want up", h.State)
	}
	if h.Rates.TokensScanned != 1000 || h.Rates.QueueDepth != 7 {
		t.Fatalf("totals = %+v", h.Rates)
	}
	if h.Rates.TokensPerSec != 0 {
		t.Fatalf("rates from a single snapshot should be 0, got %+v", h.Rates)
	}

	// One interval later: 500 more tokens, 5 alerts -> windowed rates.
	clock.Advance(time.Second)
	tokens.Add(500)
	alerts.Add(5)
	if err := s.ScrapeOnce(nil); err != nil {
		t.Fatal(err)
	}
	h = s.Workers()[0]
	if h.State != StateUp {
		t.Fatalf("state = %s, want up", h.State)
	}
	if h.Rates.TokensPerSec != 500 || h.Rates.AlertsPerSec != 5 {
		t.Fatalf("rates = %+v, want 500 tokens/s, 5 alerts/s", h.Rates)
	}

	// Degradation counters moving flips the state to degraded.
	clock.Advance(time.Second)
	degraded.Inc()
	if err := s.ScrapeOnce(nil); err != nil {
		t.Fatal(err)
	}
	if h = s.Workers()[0]; h.State != StateDegraded {
		t.Fatalf("state = %s, want degraded", h.State)
	}
}

// TestRestartedWorkerCannotMaskDegradation: a worker that restarts between
// two scrapes resets its counters. A counter that went backwards counts
// from zero, as in rates, so a reset conn_errors (10 → 0) cannot cancel
// fresh unscanned bytes (0 → 5).
func TestRestartedWorkerCannotMaskDegradation(t *testing.T) {
	before := obs.NewRegistry()
	before.Counter(obs.MBConnErrorsTotal, "e").Add(10)
	var mu sync.Mutex
	current := obs.AdminMux(before)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		mux := current
		mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()

	clock := newFakeClock()
	s, err := New(Config{
		Targets:  []Target{{Name: "w1", URL: srv.URL}},
		Interval: time.Second,
		Retry:    quickRetry,
		Metrics:  obs.NewRegistry(),
		Now:      clock.Now,
		Client:   srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScrapeOnce(nil); err != nil {
		t.Fatal(err)
	}

	// The restart: a fresh registry that has already forwarded unscanned
	// bytes.
	after := obs.NewRegistry()
	after.Counter(obs.MBUnscannedBytes, "u").Add(5)
	mu.Lock()
	current = obs.AdminMux(after)
	mu.Unlock()
	clock.Advance(time.Second)
	if err := s.ScrapeOnce(nil); err != nil {
		t.Fatal(err)
	}
	if h := s.Workers()[0]; h.State != StateDegraded {
		t.Fatalf("state after a restart with unscanned bytes = %s, want degraded", h.State)
	}
}

func TestScraperWorkerDownMidScrapeAndAging(t *testing.T) {
	w := newWorkerFixture(t)
	w.reg.Counter(obs.MBConnectionsTotal, "c").Add(2)

	clock := newFakeClock()
	s, err := New(Config{
		Targets:    []Target{{Name: "w1", URL: w.srv.URL}},
		Interval:   time.Second,
		StaleAfter: 3 * time.Second,
		DownAfter:  10 * time.Second,
		Retry:      quickRetry,
		Metrics:    obs.NewRegistry(),
		Now:        clock.Now,
		Client:     w.srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScrapeOnce(nil); err != nil {
		t.Fatal(err)
	}

	// Kill the worker; the next round must fail without losing the
	// retained snapshot, and the state must age up -> stale -> down.
	w.srv.Close()
	clock.Advance(time.Second)
	if err := s.ScrapeOnce(nil); err == nil {
		t.Fatal("scrape of a dead worker succeeded")
	}
	h := s.Workers()[0]
	if h.State != StateUp {
		t.Fatalf("state right after failure = %s, want up (snapshot still fresh)", h.State)
	}
	if h.LastError == "" || h.Errors != 1 || h.Scrapes != 1 {
		t.Fatalf("health = %+v", h)
	}
	if h.Rates.Connections != 2 {
		t.Fatalf("retained totals lost: %+v", h.Rates)
	}

	clock.Advance(3 * time.Second) // age 4s > StaleAfter
	if h = s.Workers()[0]; h.State != StateStale {
		t.Fatalf("state at 4s = %s, want stale", h.State)
	}
	clock.Advance(7 * time.Second) // age 11s > DownAfter
	if h = s.Workers()[0]; h.State != StateDown {
		t.Fatalf("state at 11s = %s, want down", h.State)
	}

	// A down worker fails the fleet check even with every SLO met.
	rep := s.Check()
	if rep.OK {
		t.Fatal("Check().OK with a down worker")
	}
}

func TestScraperRejectsGarbageAndTruncatedBodies(t *testing.T) {
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		//lint:ignore unchecked-err test server write
		w.Write([]byte("\x00\x01 not an exposition"))
	}))
	defer garbage.Close()
	truncated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		//lint:ignore unchecked-err test server write
		w.Write([]byte(`[{"name":"blindbox_mb_connections_total","help":"","type":"counter","series":[{"val`))
	}))
	defer truncated.Close()
	errorcode := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "no", http.StatusInternalServerError)
	}))
	defer errorcode.Close()

	s, err := New(Config{
		Targets: []Target{
			{Name: "garbage", URL: garbage.URL},
			{Name: "truncated", URL: truncated.URL},
			{Name: "errorcode", URL: errorcode.URL},
		},
		Retry:   quickRetry,
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScrapeOnce(nil); err == nil {
		t.Fatal("scrape of garbage workers succeeded")
	}
	for _, h := range s.Workers() {
		if h.State != StateDown || h.Scrapes != 0 || h.Errors != 1 || h.LastError == "" {
			t.Errorf("%s: health = %+v, want down with one recorded error", h.Name, h)
		}
	}
}

func TestScrapeRetryRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter(obs.MBConnectionsTotal, "c").Add(1)
	var mu sync.Mutex
	fails := 1
	mux := obs.AdminMux(reg)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		f := fails
		fails--
		mu.Unlock()
		if f > 0 {
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()

	s, err := New(Config{
		Targets: []Target{{Name: "flaky", URL: srv.URL}},
		Retry:   retry.Policy{Attempts: 3, Base: time.Millisecond, Max: time.Millisecond, Seed: 1},
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScrapeOnce(nil); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	h := s.Workers()[0]
	if h.State != StateUp || h.Scrapes != 1 || h.Errors != 0 {
		t.Fatalf("health = %+v", h)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted zero targets")
	}
	if _, err := New(Config{Targets: []Target{{Name: "fleet", URL: "http://x"}}}); err == nil {
		t.Error("New accepted the reserved worker name")
	}
	if _, err := New(Config{Targets: []Target{
		{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"},
	}}); err == nil {
		t.Error("New accepted duplicate worker names")
	}
	s, err := New(Config{Targets: []Target{{URL: "http://127.0.0.1:9001"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.workers[0].name; got != "127.0.0.1:9001" {
		t.Errorf("derived worker name = %q", got)
	}
}

// TestScraperSelfMetrics pins the scraper's own up gauge: 1 after a
// fresh scrape, 0 once the worker's snapshot ages out.
func TestScraperSelfMetrics(t *testing.T) {
	w := newWorkerFixture(t)
	reg := obs.NewRegistry()
	clock := newFakeClock()
	s, err := New(Config{
		Targets: []Target{{Name: "w1", URL: w.srv.URL}},
		Retry:   quickRetry,
		Metrics: reg,
		Now:     clock.Now,
		Client:  w.srv.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScrapeOnce(nil); err != nil {
		t.Fatal(err)
	}
	const up = `blindbox_fleet_worker_up{worker="w1"}`
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if v, ok := parseText(t, buf.String())[up]; !ok || v != 1 {
		t.Errorf("worker_up{w1} = %v, %v, want 1", v, ok)
	}

	// Fail a round: the up gauge drops once the snapshot ages out.
	w.srv.Close()
	clock.Advance(time.Minute)
	//lint:ignore unchecked-err the error path is the point
	s.ScrapeOnce(nil)
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if v, ok := parseText(t, buf.String())[up]; !ok || v != 0 {
		t.Errorf("worker_up{w1} = %v, %v, want 0", v, ok)
	}
}
