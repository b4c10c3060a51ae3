// End-to-end distributed-tracing suite: full client -> middlebox -> server
// sessions with every party tracing into its own sink, assembled with
// internal/obs. The core property: each session yields exactly one
// acyclic span tree — a single root on the client, every span reachable
// from it by parent links, all three parties on one trace ID, and a
// critical path bounded by the wall-clock.
package blindbox

import (
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestE2ETraceTreeProperties runs traced sessions and checks the
// assembled trace invariants that bbtrace -assemble -strict enforces.
func TestE2ETraceTreeProperties(t *testing.T) {
	g, err := NewRuleGenerator("TraceRG")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ParseRules("trace-e2e",
		`alert tcp any any -> any any (msg:"kw"; content:"attack01"; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}

	var clientSink, mbSink, serverSink obs.CollectSink
	mb, err := NewMiddlebox(MiddleboxConfig{
		Ruleset:     g.Sign(rs),
		RGPublicKey: g.PublicKey(),
		Trace:       &mbSink,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()

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

	serverCfg := ConnConfig{Core: DefaultConfig(), RG: RGMaterial{TagKey: g.TagKey()}, Trace: &serverSink}
	go func() {
		for {
			raw, err := serverLn.Accept()
			if err != nil {
				return
			}
			go func() {
				conn, err := Server(raw, serverCfg)
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

	const sessions = 3
	payload := []byte(strings.Repeat("benign attack01 words here. ", 64))
	for i := 0; i < sessions; i++ {
		cfg := ConnConfig{Core: DefaultConfig(), RG: RGMaterial{TagKey: g.TagKey()}, Trace: &clientSink}
		conn, err := Dial(mbLn.Addr().String(), cfg)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if _, err := conn.Write(payload); err != nil {
			t.Fatalf("session %d write: %v", i, err)
		}
		if err := conn.CloseWrite(); err != nil {
			t.Fatalf("session %d close-write: %v", i, err)
		}
		if _, err := io.ReadAll(conn); err != nil {
			t.Fatalf("session %d read: %v", i, err)
		}
		conn.Close()
	}

	// The middlebox emits forward spans when its relay goroutines drain,
	// shortly after the client closes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		forwards := 0
		for _, sp := range mbSink.Spans() {
			if sp.Name == obs.SpanForward {
				forwards++
			}
		}
		if forwards >= 2*sessions {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("middlebox emitted %d forward spans, want %d", forwards, 2*sessions)
		}
		time.Sleep(5 * time.Millisecond)
	}

	all := append(append(clientSink.Spans(), mbSink.Spans()...), serverSink.Spans()...)
	flows, untraced, err := obs.AssembleSpans(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(untraced) != 0 {
		t.Errorf("%d span(s) carried no trace context: %+v", len(untraced), untraced)
	}
	if len(flows) != sessions {
		t.Fatalf("assembled %d traces, want one per session (%d)", len(flows), sessions)
	}
	for _, ft := range flows {
		// Exactly one root, owned by the client (it dials first and
		// injects the trace into its hello).
		if ft.Root == nil {
			t.Fatalf("trace %s: no root span", ft.Trace)
		}
		if ft.Root.Span.Party != obs.PartyClient || ft.Root.Span.Name != obs.SpanConn {
			t.Errorf("trace %s: root is %s/%s, want client conn span",
				ft.Trace, ft.Root.Span.Party, ft.Root.Span.Name)
		}
		// Acyclic and complete: the assembler reaches spans from the root
		// by parent links only, so zero orphans means every span sits in
		// one tree with no cycles and no second root.
		if len(ft.Orphans) != 0 {
			t.Errorf("trace %s: %d orphan span(s): %+v", ft.Trace, len(ft.Orphans), ft.Orphans)
		}
		parties := map[string]bool{}
		roots := 0
		for _, n := range ft.Nodes() {
			parties[n.Span.Party] = true
			if n.Span.Parent == 0 {
				roots++
			}
		}
		if roots != 1 {
			t.Errorf("trace %s: %d parentless spans in the tree, want 1", ft.Trace, roots)
		}
		for _, p := range []string{obs.PartyClient, obs.PartyMB, obs.PartyServer} {
			if !parties[p] {
				t.Errorf("trace %s: no spans from party %q — trace context did not propagate", ft.Trace, p)
			}
		}
		if ft.CritNs <= 0 || ft.CritNs > ft.WallNs {
			t.Errorf("trace %s: critical path %dns outside (0, wall=%dns]", ft.Trace, ft.CritNs, ft.WallNs)
		}
		checkPrepCoverage(t, ft)
	}
}

// prepSubSpans are the §3.3 rule-preparation stages the middlebox's prep
// span breaks into.
var prepSubSpans = []string{obs.SpanPrepGarble, obs.SpanPrepOTBase, obs.SpanPrepOTExt,
	obs.SpanPrepLabels, obs.SpanPrepRuleEnc}

// checkPrepCoverage checks that the trace carries the middlebox's prep span
// and every §3.3 sub-span, and that the sub-spans, clipped to the prep span,
// explain at least 90% of it. Endpoint garbling overlaps the label transfer
// that waits on it; UnionNs counts the overlap once.
func checkPrepCoverage(t *testing.T, ft *obs.FlowTrace) {
	t.Helper()
	nodes := ft.Nodes()
	seen := map[string]bool{}
	for _, n := range nodes {
		seen[n.Span.Name] = true
	}
	for _, name := range append([]string{obs.SpanPrep}, prepSubSpans...) {
		if !seen[name] {
			t.Errorf("trace %s: no %q span", ft.Trace, name)
		}
	}
	var prepNs, coveredNs int64
	for _, prep := range nodes {
		if prep.Span.Name != obs.SpanPrep || prep.Span.Party != obs.PartyMB {
			continue
		}
		prepNs += prep.End - prep.Start
		var iv []obs.Interval
		for _, n := range nodes {
			if !slices.Contains(prepSubSpans, n.Span.Name) {
				continue
			}
			s, e := max(n.Start, prep.Start), min(n.End, prep.End)
			if e > s {
				iv = append(iv, obs.Interval{Start: s, End: e})
			}
		}
		coveredNs += obs.UnionNs(iv)
	}
	if prepNs <= 0 {
		t.Errorf("trace %s: no middlebox prep span", ft.Trace)
		return
	}
	if cov := float64(coveredNs) / float64(prepNs); cov < 0.9 {
		t.Errorf("trace %s: §3.3 sub-spans cover %.3f of the prep span, want >= 0.9", ft.Trace, cov)
	}
}
