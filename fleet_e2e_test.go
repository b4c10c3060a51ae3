// Fleet e2e: three live middlebox workers, each with its own registry,
// flight recorder and admin surface, aggregated by the internal/obs/agg
// scraper that backs bbfleet. The claims under test are the fleet
// plane's contracts (DESIGN.md §8):
//
//   - rollup exactness: every worker="fleet" series on /cluster/metrics
//     equals the sum of the per-worker series, and both match
//     Middlebox.Stats() to the digit;
//   - cross-worker tracing: /cluster/trace assembles the live
//     flight-recorder spans of all three workers into one acyclic tree;
//   - SLO flip: a chaos-injected fail-open degradation on one worker
//     turns the fleet Check from OK to failing (the bbfleet -check exit
//     code) and marks that worker degraded.
package blindbox

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/middlebox"
	"repro/internal/obs"
	"repro/internal/obs/agg"
	"repro/internal/retry"
)

// fleetWorker is one live worker: a middlebox proxying to its own echo
// server, with the same admin mux bbmb -admin -worker serves.
type fleetWorker struct {
	name   string
	reg    *Metrics
	rec    *Recorder
	mb     *Middlebox
	mbAddr string
	admin  *httptest.Server
}

// newFleetWorker boots one worker. The policy/barrier/onAlert knobs let
// one worker double as the chaos target (fail-open with a stallable
// alert sink); the others run defaults.
func newFleetWorker(t *testing.T, name string, g *RuleGenerator, rs *Ruleset,
	policy middlebox.Policy, barrier time.Duration, onAlert func(Alert)) *fleetWorker {
	t.Helper()
	w := &fleetWorker{name: name, reg: NewMetrics()}
	obs.RegisterWorkerInfo(w.reg, name)
	w.rec = NewRecorder(RecorderConfig{Metrics: w.reg})
	tmo := chaosMBTimeouts()
	if barrier != 0 {
		tmo.Barrier = barrier
	}
	mb, err := NewMiddlebox(MiddleboxConfig{
		Ruleset:     g.Sign(rs),
		RGPublicKey: g.PublicKey(),
		Policy:      policy,
		Timeouts:    tmo,
		Metrics:     w.reg,
		Recorder:    w.rec,
		OnAlert:     onAlert,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.mb = mb

	serverLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	epCfg := ConnConfig{
		Core:     DefaultConfig(),
		RG:       RGMaterial{TagKey: g.TagKey()},
		Timeouts: chaosEndpointTimeouts(),
	}
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

	mux := AdminMux(w.reg)
	w.rec.Mount(mux)
	w.admin = httptest.NewServer(mux)
	w.mbAddr = mbLn.Addr().String()
	t.Cleanup(func() {
		w.admin.Close()
		mbLn.Close()
		serverLn.Close()
	})
	return w
}

// runFleetSession drives one echo session through the worker and fails
// the test unless the full payload came back.
func runFleetSession(t *testing.T, g *RuleGenerator, w *fleetWorker, payload []byte) {
	t.Helper()
	ccfg := ConnConfig{
		Core:     Config{Protocol: ProtocolI, Mode: DelimiterTokens},
		RG:       RGMaterial{TagKey: g.TagKey()},
		Timeouts: chaosEndpointTimeouts(),
	}
	raw, err := net.Dial("tcp", w.mbAddr)
	if err != nil {
		t.Fatal(err)
	}
	res := runChaosSession(t, ccfg, raw, payload, 15*time.Second)
	if res.err != nil {
		t.Fatalf("worker %s session: %v", w.name, res.err)
	}
	if !bytes.Equal(res.echoed, payload) {
		t.Fatalf("worker %s echoed %d bytes, want %d", w.name, len(res.echoed), len(payload))
	}
}

// waitStableStats polls until two successive Stats() reads agree —
// session bookkeeping on a live worker settles asynchronously after the
// client sees its echo.
func waitStableStats(t *testing.T, mb *Middlebox) middlebox.Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	prev := mb.Stats()
	for {
		time.Sleep(30 * time.Millisecond)
		cur := mb.Stats()
		if cur == prev {
			return cur
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker stats did not settle: %+v vs %+v", prev, cur)
		}
		prev = cur
	}
}

// TestFleetObservabilityPlane is the three-worker fleet e2e described in
// the file comment.
func TestFleetObservabilityPlane(t *testing.T) {
	g, err := NewRuleGenerator("FleetRG")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ParseRules("fleet",
		`alert tcp any any -> any any (msg:"kw"; content:"attack01"; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}

	// w1 and w2 run defaults; w3 is the chaos target: fail-open, a 200ms
	// detection barrier, and an alert sink that stalls the alerting flow's
	// shard until the gate opens — benign traffic never alerts, so w3 behaves
	// normally until the chaos phase plants the keyword.
	gate := make(chan struct{})
	w1 := newFleetWorker(t, "w1", g, rs, middlebox.FailClosed, 0, nil)
	w2 := newFleetWorker(t, "w2", g, rs, middlebox.FailClosed, 0, nil)
	w3 := newFleetWorker(t, "w3", g, rs, middlebox.FailOpen, 200*time.Millisecond,
		func(Alert) { <-gate })
	workers := []*fleetWorker{w1, w2, w3}

	attack := conformancePayload(42, 8<<10)
	benign := []byte(strings.Repeat("calm traffic flowing quietly through the fleet ", 64))
	runFleetSession(t, g, w1, attack)
	runFleetSession(t, g, w1, attack)
	runFleetSession(t, g, w2, attack)
	runFleetSession(t, g, w3, benign)

	// Freeze w1/w2 (drain); w3 stays live for the chaos phase, so wait
	// until its counters settle instead.
	if err := w1.mb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.mb.Close(); err != nil {
		t.Fatal(err)
	}
	stats := []middlebox.Stats{w1.mb.Stats(), w2.mb.Stats(), waitStableStats(t, w3.mb)}

	s, err := agg.New(agg.Config{
		Targets: []agg.Target{
			{Name: "w1", URL: w1.admin.URL},
			{Name: "w2", URL: w2.admin.URL},
			{Name: "w3", URL: w3.admin.URL},
		},
		Retry:   retry.Policy{Attempts: 1, Base: time.Millisecond, Max: time.Millisecond},
		Metrics: obs.NewRegistry(),
		SLOs:    agg.DefaultSLOs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScrapeOnce(nil); err != nil {
		t.Fatalf("healthy scrape round failed: %v", err)
	}

	// Healthy verdict: every worker up, every SLO met.
	rep := s.Check()
	if !rep.OK {
		blob, _ := json.Marshal(rep)
		t.Fatalf("healthy fleet fails Check: %s", blob)
	}
	if len(rep.Workers) != 3 {
		t.Fatalf("Check reports %d workers, want 3", len(rep.Workers))
	}
	for _, wh := range rep.Workers {
		if wh.State != agg.StateUp {
			t.Errorf("worker %s state %s, want up", wh.Name, wh.State)
		}
	}

	// Rollup exactness: /cluster/metrics totals == sum of per-worker
	// Stats(), per worker and for the worker="fleet" rollup, to the digit.
	var buf bytes.Buffer
	if err := s.WriteClusterMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	series := parseExposition(t, buf.String())
	totals := map[string]func(middlebox.Stats) uint64{
		"blindbox_mb_connections_total":     func(st middlebox.Stats) uint64 { return st.Connections },
		"blindbox_mb_tokens_scanned_total":  func(st middlebox.Stats) uint64 { return st.TokensScanned },
		"blindbox_mb_bytes_forwarded_total": func(st middlebox.Stats) uint64 { return st.BytesForwarded },
		"blindbox_mb_alerts_total":          func(st middlebox.Stats) uint64 { return st.Alerts },
		"blindbox_mb_unscanned_bytes_total": func(st middlebox.Stats) uint64 { return st.UnscannedBytes },
	}
	for name, field := range totals {
		var sum uint64
		for i, w := range workers {
			want := field(stats[i])
			sum += want
			got, ok := series[fmt.Sprintf("%s{worker=%q}", name, w.name)]
			if !ok || got != float64(want) {
				t.Errorf("%s{worker=%q} = %v (present %v), Stats() says %d", name, w.name, got, ok, want)
			}
		}
		got, ok := series[fmt.Sprintf("%s{worker=%q}", name, agg.FleetLabel)]
		if !ok || got != float64(sum) {
			t.Errorf("%s{worker=\"fleet\"} = %v (present %v), want %d", name, got, ok, sum)
		}
	}
	if stats[0].TokensScanned == 0 || stats[0].Alerts == 0 {
		t.Fatalf("w1 scanned nothing or never alerted — the fleet run was vacuous: %+v", stats[0])
	}
	// Worker identity: the scrape-assigned name and the worker's
	// self-reported blindbox_worker_info must agree side by side.
	for _, w := range workers {
		got, ok := series[fmt.Sprintf("%s{worker=%q,exported_worker=%q}", obs.WorkerInfo, w.name, w.name)]
		if !ok || got != 1 {
			t.Errorf("worker_info{worker=%q,exported_worker=%q} = %v (present %v), want 1", w.name, w.name, got, ok)
		}
	}

	// The same surfaces over HTTP, the way bbfleet -admin serves them.
	fleetSrv := httptest.NewServer(s.Mux())
	defer fleetSrv.Close()
	resp, err := http.Get(fleetSrv.URL + "/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/cluster/workers Content-Type %q", ct)
	}
	var httpRep agg.CheckReport
	err = json.NewDecoder(resp.Body).Decode(&httpRep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(httpRep.Workers) != 3 || !httpRep.OK {
		t.Fatalf("/cluster/workers: OK=%v with %d workers, want healthy 3", httpRep.OK, len(httpRep.Workers))
	}

	// Cross-worker trace: one logical flow leaves live spans in all three
	// recorders under a shared trace context; /cluster/trace must pull and
	// assemble them into a single acyclic tree spanning every worker.
	ctx := obs.NewSpanCtx()
	base := time.Now().Add(-2 * time.Second).UnixNano()
	mkSpan := func(name, dir string, startOff, dur int64) obs.Span {
		return obs.Span{
			Flow: 9001, Party: obs.PartyMB, Name: name, Dir: dir,
			Start: base + startOff, Dur: dur,
		}
	}
	root := mkSpan(obs.SpanConn, "", 0, int64(time.Second))
	ctx.Stamp(&root)
	scan := mkSpan(obs.SpanScan, "c2s", int64(100*time.Millisecond), int64(200*time.Millisecond))
	ctx.Child().Stamp(&scan)
	forward := mkSpan(obs.SpanForward, "c2s", int64(400*time.Millisecond), int64(300*time.Millisecond))
	ctx.Child().Stamp(&forward)
	for i, sp := range []obs.Span{root, scan, forward} {
		fr := workers[i].rec.BeginFlowSampled(9001, obs.PartyMB, ctx, false)
		fr.Emit(sp)
		defer fr.End("")
	}
	tresp, err := http.Get(fleetSrv.URL + "/cluster/trace?id=" + ctx.TraceString())
	if err != nil {
		t.Fatal(err)
	}
	tbody, err := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("/cluster/trace: status %d, body %s", tresp.StatusCode, tbody)
	}
	var tr agg.TraceResponse
	if err := json.Unmarshal(tbody, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Spans != 3 || tr.Partial || tr.Orphans != 0 {
		t.Fatalf("trace: %d spans, partial=%v, %d orphans, want 3 complete", tr.Spans, tr.Partial, tr.Orphans)
	}
	if want := []string{"w1", "w2", "w3"}; fmt.Sprint(tr.Workers) != fmt.Sprint(want) {
		t.Fatalf("trace workers %v, want %v", tr.Workers, want)
	}
	if len(tr.Tree) != 3 {
		t.Fatalf("trace tree has %d nodes, want 3", len(tr.Tree))
	}
	// A preorder flattening is acyclic iff it starts at depth 0 and each
	// node descends at most one level below its predecessor.
	for i, node := range tr.Tree {
		switch {
		case i == 0 && node.Depth != 0:
			t.Fatalf("trace tree starts at depth %d, want 0", node.Depth)
		case i > 0 && (node.Depth < 1 || node.Depth > tr.Tree[i-1].Depth+1):
			t.Fatalf("trace tree node %d at depth %d after depth %d — not a preorder tree",
				i, node.Depth, tr.Tree[i-1].Depth)
		}
	}

	// Chaos phase: plant the keyword on w3. Its stalled alert sink wedges
	// the flow's detect shard, the 200ms barrier expires, and the fail-open
	// policy forwards the flow unscanned — a real degradation, not a
	// synthetic counter bump.
	runFleetSession(t, g, w3, attack)
	close(gate)
	st3 := waitStableStats(t, w3.mb)
	if st3.Degraded == 0 || st3.UnscannedBytes == 0 {
		t.Fatalf("chaos session did not degrade w3: %+v", st3)
	}

	if err := s.ScrapeOnce(nil); err != nil {
		t.Fatalf("post-chaos scrape round failed: %v", err)
	}
	rep = s.Check()
	if rep.OK {
		t.Fatal("Check stayed OK after a fail-open degradation breached the unscanned-bytes SLO")
	}
	var unscanned *agg.SLOResult
	for i := range rep.SLOs {
		if rep.SLOs[i].Name == "unscanned_bytes" {
			unscanned = &rep.SLOs[i]
		}
	}
	if unscanned == nil || unscanned.OK {
		t.Fatalf("unscanned_bytes SLO did not flip: %+v", rep.SLOs)
	}
	for _, wh := range rep.Workers {
		if wh.Name == "w3" && wh.State != agg.StateDegraded {
			t.Errorf("w3 state %s after degradation, want degraded", wh.State)
		}
	}

	if err := w3.mb.Close(); err != nil {
		t.Fatal(err)
	}
}
