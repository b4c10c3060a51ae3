// The multi-target scraper: polls every worker admin endpoint on an
// interval with a per-target timeout and a bounded jittered retry
// (internal/retry), keeps the last K decoded snapshots per worker,
// derives rates from the deltas, and classifies each worker
// up / stale / degraded / down. The verdicts are exported as the
// blindbox_fleet_* gauges registered on Config.Metrics — the same
// registry the cluster mux exposes on /metrics.
//
// Secrecy note (bblint secret-flow): the scraper only ever handles
// metric names, label values and numbers from /metrics.json bodies — no
// session keys, rule plaintext or payload bytes flow through this
// package, and nothing scraped is ever interpreted as a secret.

package agg

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
)

// Defaults for Config's zero fields.
const (
	// DefaultInterval is the scrape period.
	DefaultInterval = time.Second
	// DefaultTimeout is the per-target HTTP timeout for one attempt.
	DefaultTimeout = 2 * time.Second
	// DefaultKeep is how many decoded snapshots are retained per worker
	// (the rate window is oldest-to-newest over these).
	DefaultKeep = 8
)

// FleetLabel is the reserved worker-label value carried by the rollup
// series on /cluster/metrics. Config validation rejects a worker named
// this.
const FleetLabel = "fleet"

// Target is one worker admin endpoint to scrape.
type Target struct {
	// Name is the worker's fleet-wide name (the worker label value).
	// Empty derives a name from the URL.
	Name string
	// URL is the admin base, e.g. "http://127.0.0.1:9001"; the scraper
	// appends /metrics.json, /debug/trace and friends.
	URL string
}

// Config configures a Scraper. The zero value is not usable: at least
// one Target is required.
type Config struct {
	// Targets are the workers to scrape.
	Targets []Target
	// Interval is the scrape period (default DefaultInterval).
	Interval time.Duration
	// Timeout bounds one HTTP attempt per target (default
	// DefaultTimeout).
	Timeout time.Duration
	// Keep is the per-worker snapshot retention (default DefaultKeep).
	Keep int
	// Retry bounds the per-round attempts against one target; the zero
	// value is retry.Policy's documented default (3 attempts, jittered
	// exponential backoff).
	Retry retry.Policy
	// StaleAfter classifies a worker stale when its last successful
	// scrape is older than this (default 3×Interval).
	StaleAfter time.Duration
	// DownAfter classifies a worker down when its last successful
	// scrape is older than this (default 10×Interval).
	DownAfter time.Duration
	// Metrics receives the blindbox_fleet_* health and SLO gauges; nil
	// disables them.
	Metrics *obs.Registry
	// SLOs are the declared service-level objectives Check evaluates
	// (nil: DefaultSLOs).
	SLOs []SLO
	// Client overrides the HTTP client (tests); nil builds one from
	// Timeout.
	Client *http.Client
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
}

// WorkerState classifies one worker's health as seen by the scraper.
type WorkerState string

// The worker states, from healthy to unreachable.
const (
	// StateUp: scraped recently, no degradation observed in the window.
	StateUp WorkerState = "up"
	// StateDegraded: scraped recently, but the window shows fail-open
	// degradation, fail-closed drops, unscanned bytes or connection
	// errors accumulating.
	StateDegraded WorkerState = "degraded"
	// StateStale: last successful scrape older than StaleAfter.
	StateStale WorkerState = "stale"
	// StateDown: never scraped, or last success older than DownAfter.
	StateDown WorkerState = "down"
)

// Rates are the per-worker derived quantities: windowed rates from the
// retained snapshot deltas plus the load-bearing instantaneous totals.
type Rates struct {
	// TokensPerSec is the detection token rate over the window.
	TokensPerSec float64 `json:"tokens_per_sec"`
	// AlertsPerSec is the detection-event rate over the window.
	AlertsPerSec float64 `json:"alerts_per_sec"`
	// ConnsPerSec is the admitted-connection rate over the window.
	ConnsPerSec float64 `json:"conns_per_sec"`
	// DegradedPerSec is the fail-open degradation rate over the window.
	DegradedPerSec float64 `json:"degraded_per_sec"`
	// FailClosedPerSec is the fail-closed drop rate over the window.
	FailClosedPerSec float64 `json:"failclosed_per_sec"`
	// QueueDepth sums the per-shard detection queue gauges (latest).
	QueueDepth int64 `json:"queue_depth"`
	// Connections, TokensScanned, Alerts and UnscannedBytes are the
	// latest cumulative totals (process lifetime).
	Connections    float64 `json:"connections_total"`
	TokensScanned  float64 `json:"tokens_scanned_total"`
	Alerts         float64 `json:"alerts_total"`
	UnscannedBytes float64 `json:"unscanned_bytes_total"`
}

// WorkerHealth is one row of /cluster/workers and the bbfleet views.
type WorkerHealth struct {
	// Name is the worker's fleet-wide name.
	Name string `json:"name"`
	// URL is the scraped admin base.
	URL string `json:"url"`
	// State is the up/stale/degraded/down classification.
	State WorkerState `json:"state"`
	// LastScrapeUnixNs is the wall-clock of the last successful scrape
	// (0: never scraped).
	LastScrapeUnixNs int64 `json:"last_scrape_unix_ns,omitempty"`
	// StalenessSeconds is the age of the last successful scrape.
	StalenessSeconds float64 `json:"staleness_seconds"`
	// LastError is the last scrape round's failure ("" after success).
	LastError string `json:"last_error,omitempty"`
	// Scrapes and Errors count successful scrapes and failed rounds.
	Scrapes uint64 `json:"scrapes"`
	Errors  uint64 `json:"errors"`
	// Rates are the worker's derived quantities.
	Rates Rates `json:"rates"`
}

// timedSnapshot is one decoded scrape with its receive time.
type timedSnapshot struct {
	at   time.Time
	snap *Snapshot
}

// worker is the scraper's per-target state.
type worker struct {
	name, url string

	upGauge *obs.Gauge

	mu          sync.Mutex
	snaps       []timedSnapshot // oldest first, bounded by Keep
	lastSuccess time.Time
	lastErr     string
	nScrapes    uint64
	nErrors     uint64
}

// Scraper polls the configured workers and aggregates their state. All
// methods are safe for concurrent use; Run drives periodic scraping,
// ScrapeOnce performs a single round (bbfleet -check).
type Scraper struct {
	cfg    Config
	client *http.Client
	now    func() time.Time
	slos   []SLO

	workers []*worker
	byName  map[string]*worker

	sloUp *obs.GaugeVec
}

// New validates cfg and builds a Scraper.
func New(cfg Config) (*Scraper, error) {
	if len(cfg.Targets) == 0 {
		return nil, errors.New("agg: no scrape targets")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Keep <= 0 {
		cfg.Keep = DefaultKeep
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 3 * cfg.Interval
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 10 * cfg.Interval
	}
	if cfg.SLOs == nil {
		cfg.SLOs = DefaultSLOs()
	}
	s := &Scraper{
		cfg:    cfg,
		client: cfg.Client,
		now:    cfg.Now,
		slos:   cfg.SLOs,
		byName: map[string]*worker{},
	}
	if s.client == nil {
		s.client = &http.Client{Timeout: cfg.Timeout}
	}
	if s.now == nil {
		s.now = time.Now
	}
	upVec := cfg.Metrics.GaugeVec(obs.FleetWorkerUp, obs.Help(obs.FleetWorkerUp), "worker")
	s.sloUp = cfg.Metrics.GaugeVec(obs.FleetSLOUp, obs.Help(obs.FleetSLOUp), "slo")
	for _, t := range cfg.Targets {
		name := t.Name
		if name == "" {
			name = strings.TrimPrefix(strings.TrimPrefix(t.URL, "http://"), "https://")
		}
		if name == FleetLabel {
			return nil, fmt.Errorf("agg: worker name %q is reserved for the rollup series", FleetLabel)
		}
		if _, dup := s.byName[name]; dup {
			return nil, fmt.Errorf("agg: duplicate worker name %q", name)
		}
		w := &worker{
			name:    name,
			url:     strings.TrimRight(t.URL, "/"),
			upGauge: upVec.With(name),
		}
		s.byName[name] = w
		s.workers = append(s.workers, w)
	}
	return s, nil
}

// Run scrapes every Interval until stop closes. The first round fires
// immediately.
func (s *Scraper) Run(stop <-chan struct{}) {
	t := time.NewTicker(s.cfg.Interval)
	defer t.Stop()
	for {
		//lint:ignore unchecked-err per-round scrape failures are recorded per worker and surfaced via health state
		s.ScrapeOnce(stop)
		select {
		case <-t.C:
		case <-stop:
			return
		}
	}
}

// ScrapeOnce runs one scrape round: every target in parallel, each with
// the retry budget. It returns nil when every target succeeded, else an
// error joining the per-worker failures (the round still ingested every
// success — a worker down mid-scrape only affects its own row).
func (s *Scraper) ScrapeOnce(stop <-chan struct{}) error {
	errs := make([]error, len(s.workers))
	var wg sync.WaitGroup
	for i, w := range s.workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			errs[i] = s.scrapeWorker(w, stop)
		}(i, w)
	}
	wg.Wait()
	s.updateHealthMetrics()
	return errors.Join(errs...)
}

// scrapeWorker runs one worker's scrape round under the retry policy
// and ingests the result.
func (s *Scraper) scrapeWorker(w *worker, stop <-chan struct{}) error {
	var snap *Snapshot
	err := s.cfg.Retry.Do(stop, func(int) error {
		var ferr error
		snap, ferr = s.fetch(w.url + "/metrics.json")
		return ferr
	})
	now := s.now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.nErrors++
		w.lastErr = err.Error()
		return fmt.Errorf("worker %s: %w", w.name, err)
	}
	w.nScrapes++
	w.lastErr = ""
	w.lastSuccess = now
	w.snaps = append(w.snaps, timedSnapshot{at: now, snap: snap})
	if len(w.snaps) > s.cfg.Keep {
		w.snaps = w.snaps[len(w.snaps)-s.cfg.Keep:]
	}
	return nil
}

// fetch GETs one /metrics.json body and decodes it.
func (s *Scraper) fetch(url string) (*Snapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		//lint:ignore unchecked-err drain-and-close of a scrape body; the decode result is what matters
		io.Copy(io.Discard, resp.Body)
		//lint:ignore unchecked-err see above
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("agg: %s: status %s", url, resp.Status)
	}
	return Decode(resp.Body)
}

// latest returns each worker's newest snapshot (workers never scraped
// are absent), in config order.
func (s *Scraper) latest() (names []string, snaps map[string]*Snapshot) {
	snaps = map[string]*Snapshot{}
	for _, w := range s.workers {
		w.mu.Lock()
		if n := len(w.snaps); n > 0 {
			names = append(names, w.name)
			snaps[w.name] = w.snaps[n-1].snap
		}
		w.mu.Unlock()
	}
	return names, snaps
}

// degradationDelta sums the degradation signals (fail-open degradations,
// fail-closed drops, unscanned bytes, connection errors) accumulated
// between two snapshots. With old == nil it returns the cumulative
// totals — right after the first scrape the whole process history is
// the window, which a restarted aggregator outgrows one interval later.
func degradationDelta(old, cur *Snapshot) float64 {
	var total float64
	for _, name := range []string{
		obs.MBDegradedTotal, obs.MBFailClosedDropsTotal,
		obs.MBUnscannedBytes, obs.MBConnErrorsTotal,
	} {
		total += increase(old, cur, name)
	}
	return total
}

// increase is one counter's growth from old to cur (its whole value when
// old is nil). A counter that went backwards belongs to a restarted
// worker, so all of its current value is new.
func increase(old, cur *Snapshot, name string) float64 {
	c, _ := cur.Value(name)
	if old == nil {
		return c
	}
	if o, _ := old.Value(name); c >= o {
		return c - o
	}
	return c
}

// health builds one worker's row. Caller does not hold w.mu.
func (s *Scraper) health(w *worker) WorkerHealth {
	now := s.now()
	w.mu.Lock()
	defer w.mu.Unlock()
	h := WorkerHealth{
		Name:      w.name,
		URL:       w.url,
		Scrapes:   w.nScrapes,
		Errors:    w.nErrors,
		LastError: w.lastErr,
	}
	if w.lastSuccess.IsZero() {
		h.State = StateDown
		h.StalenessSeconds = -1
		return h
	}
	h.LastScrapeUnixNs = w.lastSuccess.UnixNano()
	age := now.Sub(w.lastSuccess)
	h.StalenessSeconds = age.Seconds()
	cur := w.snaps[len(w.snaps)-1].snap
	var oldest *Snapshot
	var window time.Duration
	if len(w.snaps) > 1 {
		oldest = w.snaps[0].snap
		window = w.snaps[len(w.snaps)-1].at.Sub(w.snaps[0].at)
	}
	h.Rates = rates(oldest, cur, window)
	switch {
	case age > s.cfg.DownAfter:
		h.State = StateDown
	case age > s.cfg.StaleAfter:
		h.State = StateStale
	case degradationDelta(oldest, cur) > 0:
		h.State = StateDegraded
	default:
		h.State = StateUp
	}
	return h
}

// rates derives the Rates row from the oldest and newest retained
// snapshots (old nil or window 0: rates are 0, totals still filled).
func rates(old, cur *Snapshot, window time.Duration) Rates {
	var r Rates
	r.Connections, _ = cur.Value(obs.MBConnectionsTotal)
	r.TokensScanned, _ = cur.Value(obs.MBTokensScannedTotal)
	r.Alerts, _ = cur.Value(obs.MBAlertsTotal)
	r.UnscannedBytes, _ = cur.Value(obs.MBUnscannedBytes)
	for _, depth := range cur.Labeled(obs.MBShardQueueDepth) {
		r.QueueDepth += int64(depth)
	}
	if old == nil || window <= 0 {
		return r
	}
	sec := window.Seconds()
	rate := func(name string) float64 {
		c, _ := cur.Value(name)
		o, _ := old.Value(name)
		if c < o { // worker restarted: counters reset
			o = 0
		}
		return (c - o) / sec
	}
	r.TokensPerSec = rate(obs.MBTokensScannedTotal)
	r.AlertsPerSec = rate(obs.MBAlertsTotal)
	r.ConnsPerSec = rate(obs.MBConnectionsTotal)
	r.DegradedPerSec = rate(obs.MBDegradedTotal)
	r.FailClosedPerSec = rate(obs.MBFailClosedDropsTotal)
	return r
}

// Workers returns every worker's health row in config order, refreshing
// the blindbox_fleet_worker_up gauges as a side effect.
func (s *Scraper) Workers() []WorkerHealth {
	out := make([]WorkerHealth, len(s.workers))
	for i, w := range s.workers {
		h := s.health(w)
		out[i] = h
		s.setHealthGauges(w, h)
	}
	return out
}

// updateHealthMetrics refreshes the per-worker gauges after a round.
func (s *Scraper) updateHealthMetrics() {
	for _, w := range s.workers {
		s.setHealthGauges(w, s.health(w))
	}
}

// setHealthGauges writes one worker's health into its up gauge.
func (s *Scraper) setHealthGauges(w *worker, h WorkerHealth) {
	if h.State == StateUp {
		w.upGauge.Set(1)
	} else {
		w.upGauge.Set(0)
	}
}

// EvaluateSLOs evaluates the declared SLOs against the latest snapshots
// and updates the blindbox_fleet_slo_up gauges. Results come back in
// declaration order.
func (s *Scraper) EvaluateSLOs() []SLOResult {
	_, snaps := s.latest()
	results := EvaluateSLOs(s.slos, snaps)
	for _, r := range results {
		if r.OK {
			s.sloUp.With(r.Name).Set(1)
		} else {
			s.sloUp.With(r.Name).Set(0)
		}
	}
	return results
}

// CheckReport is the one-shot fleet verdict behind bbfleet -check and
// its -json output.
type CheckReport struct {
	// Workers are the per-worker health rows.
	Workers []WorkerHealth `json:"workers"`
	// SLOs are the evaluation results in declaration order.
	SLOs []SLOResult `json:"slos"`
	// Fleet sums the per-worker rates and totals.
	Fleet Rates `json:"fleet"`
	// OK is the exit-code verdict: every SLO met and no worker down.
	OK bool `json:"ok"`
}

// Check builds the fleet verdict from current state (callers run
// ScrapeOnce or Run first). OK is false when any declared SLO is
// breached or any worker is down — a fleet that cannot be observed
// cannot be declared healthy.
func (s *Scraper) Check() CheckReport {
	rep := CheckReport{Workers: s.Workers(), SLOs: s.EvaluateSLOs(), OK: true}
	for _, w := range rep.Workers {
		rep.Fleet.TokensPerSec += w.Rates.TokensPerSec
		rep.Fleet.AlertsPerSec += w.Rates.AlertsPerSec
		rep.Fleet.ConnsPerSec += w.Rates.ConnsPerSec
		rep.Fleet.DegradedPerSec += w.Rates.DegradedPerSec
		rep.Fleet.FailClosedPerSec += w.Rates.FailClosedPerSec
		rep.Fleet.QueueDepth += w.Rates.QueueDepth
		rep.Fleet.Connections += w.Rates.Connections
		rep.Fleet.TokensScanned += w.Rates.TokensScanned
		rep.Fleet.Alerts += w.Rates.Alerts
		rep.Fleet.UnscannedBytes += w.Rates.UnscannedBytes
		if w.State == StateDown {
			rep.OK = false
		}
	}
	for _, r := range rep.SLOs {
		if !r.OK {
			rep.OK = false
		}
	}
	return rep
}

// sortedKeys returns m's keys sorted (stable rollup rendering).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
