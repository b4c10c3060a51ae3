// End-to-end observability suite: a full client -> middlebox -> server
// session with metrics and tracing enabled, scraped over the admin HTTP
// surface. The core claim: the /metrics exposition, Middlebox.Stats(), and
// the alert transcript are three views of the same counters and can never
// disagree.
package blindbox

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// parseExposition reads a Prometheus text page into series -> value,
// keyed by the full series name including labels and histogram suffixes.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
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

// TestE2EMetricsMatchTranscript runs Protocol I sessions through a parallel
// middlebox with a shared registry and trace sink, scrapes the admin mux,
// and cross-checks every surface against the others.
func TestE2EMetricsMatchTranscript(t *testing.T) {
	g, err := NewRuleGenerator("ObsRG")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ParseRules("obs-e2e", strings.Join([]string{
		`alert tcp any any -> any any (msg:"kw1"; content:"attack01"; sid:1;)`,
		`alert tcp any any -> any any (msg:"kw2"; content:"exfilkw9"; sid:2;)`,
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}

	reg := NewMetrics()
	sink := &obs.CollectSink{}
	var (
		mu     sync.Mutex
		alerts []Alert
	)
	mb, err := NewMiddlebox(MiddleboxConfig{
		Ruleset:     g.Sign(rs),
		RGPublicKey: g.PublicKey(),
		Metrics:     reg,
		Trace:       sink,
		OnAlert: func(a Alert) {
			mu.Lock()
			alerts = append(alerts, a)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	serverLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer serverLn.Close()
	mbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mbLn.Close()
	epCfg := ConnConfig{Core: DefaultConfig(), RG: RGMaterial{TagKey: g.TagKey()}}
	go func() {
		for {
			raw, err := serverLn.Accept()
			if err != nil {
				return
			}
			go func() {
				conn, err := Server(raw, epCfg)
				if err != nil {
					raw.Close()
					return
				}
				defer conn.Close()
				data, err := io.ReadAll(conn)
				if err != nil {
					return
				}
				conn.Write(data)
				conn.CloseWrite()
			}()
		}
	}()
	go mb.Serve(mbLn, serverLn.Addr().String())

	const sessions = 2
	ccfg := ConnConfig{
		Core: Config{Protocol: ProtocolI, Mode: DelimiterTokens},
		RG:   RGMaterial{TagKey: g.TagKey()},
	}
	for s := 0; s < sessions; s++ {
		conn, err := Dial(mbLn.Addr().String(), ccfg)
		if err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
		payload := conformancePayload(2000+int64(s), 8<<10)
		if _, err := conn.Write(payload); err != nil {
			t.Fatalf("session %d write: %v", s, err)
		}
		if err := conn.CloseWrite(); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadAll(conn); err != nil {
			t.Fatalf("session %d read: %v", s, err)
		}
		conn.Close()
	}
	if err := mb.Close(); err != nil {
		t.Fatal(err)
	}

	// Scrape the same admin mux bbmb -admin serves.
	srv := httptest.NewServer(AdminMux(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	series := parseExposition(t, string(body))

	// Surface 1 vs 2: Stats() and /metrics read the same registry cells.
	stats := mb.Stats()
	mu.Lock()
	transcript := len(alerts)
	bySID := map[int]int{}
	for _, a := range alerts {
		if !a.Secondary && a.Event.Kind == RuleMatch {
			bySID[a.Event.Rule.SID]++
		}
	}
	mu.Unlock()
	if stats.TokensScanned == 0 {
		t.Fatal("no tokens scanned — the session was vacuous")
	}
	checks := map[string]uint64{
		"blindbox_mb_connections_total":     stats.Connections,
		"blindbox_mb_tokens_scanned_total":  stats.TokensScanned,
		"blindbox_mb_bytes_forwarded_total": stats.BytesForwarded,
		"blindbox_mb_alerts_total":          stats.Alerts,
	}
	for name, want := range checks {
		if got, ok := series[name]; !ok || got != float64(want) {
			t.Errorf("%s: scraped %v, Stats() says %d", name, got, want)
		}
	}
	if stats.Connections != sessions {
		t.Errorf("Connections = %d, want %d", stats.Connections, sessions)
	}

	// Surface 3: the alert transcript. Every dispatched event incremented
	// alerts_total; rule matches also incremented their SID's series.
	if int(stats.Alerts) != transcript {
		t.Errorf("Stats().Alerts = %d, transcript has %d", stats.Alerts, transcript)
	}
	if len(bySID) == 0 {
		t.Fatal("no rule matches in the transcript")
	}
	for sid, n := range bySID {
		key := fmt.Sprintf(`blindbox_mb_alerts_by_sid_total{sid="%d"}`, sid)
		if got := series[key]; got != float64(n) {
			t.Errorf("%s: scraped %v, transcript has %d", key, got, n)
		}
	}

	// Pipeline latency and queue-depth series must be present: the scan
	// histogram saw every batch, and every shard registered a depth gauge
	// (drained to zero after Close).
	if got := series["blindbox_mb_scan_seconds_count"]; got <= 0 {
		t.Errorf("scan histogram recorded no observations: %v", got)
	}
	if got, ok := series[`blindbox_mb_scan_seconds_bucket{le="+Inf"}`]; !ok || got <= 0 {
		t.Errorf("scan histogram +Inf bucket missing or empty: %v", got)
	}
	for shard := 0; shard < mb.DetectShards(); shard++ {
		key := fmt.Sprintf(`blindbox_mb_shard_queue_depth{shard="%d"}`, shard)
		if got, ok := series[key]; !ok || got != 0 {
			t.Errorf("%s: got %v (present %v), want 0 after Close", key, got, ok)
		}
	}

	// The profiling surface rides on the same mux.
	presp, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: status %d", presp.StatusCode)
	}

	verifySpanOrdering(t, sink.Spans(), sessions)
}

// verifySpanOrdering pins the trace contract: every flow opens with
// handshake then prep, every scan starts after prep, and scans within one
// (flow, direction) are emitted in start order (per-flow shard pinning
// makes them sequential).
func verifySpanOrdering(t *testing.T, spans []Span, flows int) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("trace sink collected no spans")
	}
	type flowView struct {
		handshake, prep *Span
		scans           map[string][]Span
		forwards        int
	}
	byFlow := map[uint64]*flowView{}
	for i := range spans {
		sp := spans[i]
		fv := byFlow[sp.Flow]
		if fv == nil {
			fv = &flowView{scans: map[string][]Span{}}
			byFlow[sp.Flow] = fv
		}
		switch sp.Name {
		case obs.SpanHandshake:
			fv.handshake = &spans[i]
		case obs.SpanPrep:
			fv.prep = &spans[i]
		case obs.SpanScan:
			fv.scans[sp.Dir] = append(fv.scans[sp.Dir], sp)
		case obs.SpanForward:
			fv.forwards++
		}
	}
	if len(byFlow) != flows {
		t.Fatalf("spans cover %d flows, want %d", len(byFlow), flows)
	}
	for id, fv := range byFlow {
		if fv.handshake == nil || fv.prep == nil {
			t.Fatalf("flow %d: missing handshake/prep span", id)
		}
		if fv.handshake.Start > fv.prep.Start {
			t.Errorf("flow %d: prep started before handshake", id)
		}
		if fv.forwards != 2 {
			t.Errorf("flow %d: %d forward spans, want one per direction", id, fv.forwards)
		}
		if len(fv.scans) == 0 {
			t.Errorf("flow %d: no scan spans", id)
		}
		for dir, ss := range fv.scans {
			for i, sp := range ss {
				if sp.Start < fv.prep.Start {
					t.Errorf("flow %d %s: scan %d started before prep", id, dir, i)
				}
				if sp.Shard == nil || *sp.Shard < 0 {
					t.Errorf("flow %d %s: scan %d carries no shard", id, dir, i)
				}
				if i > 0 && sp.Start < ss[i-1].Start {
					t.Errorf("flow %d %s: scan %d out of order (%d < %d)",
						id, dir, i, sp.Start, ss[i-1].Start)
				}
			}
		}
	}
}

// TestMiddleboxConnErrors pins the satellite fix: a connection the
// middlebox cannot proxy (upstream dial failure) is counted in ConnErrors
// instead of being silently swallowed.
func TestMiddleboxConnErrors(t *testing.T) {
	g, err := NewRuleGenerator("ErrRG")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ParseRules("err", `alert tcp any any -> any any (msg:"kw"; content:"attack01"; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMiddlebox(MiddleboxConfig{Ruleset: g.Sign(rs), RGPublicKey: g.PublicKey()})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()

	mbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mbLn.Close()
	// A dead upstream: bind a port, then close it before the middlebox dials.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	go mb.Serve(mbLn, deadAddr)

	ccfg := ConnConfig{Core: DefaultConfig(), RG: RGMaterial{TagKey: g.TagKey()}}
	if _, err := Dial(mbLn.Addr().String(), ccfg); err == nil {
		t.Fatal("Dial succeeded through a middlebox with a dead upstream")
	}
	deadline := time.Now().Add(5 * time.Second)
	for mb.Stats().ConnErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ConnErrors stayed 0 after a failed upstream dial: %+v", mb.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
