// Chaos suite: seeded fault injection against full client -> middlebox ->
// server sessions. The claim under test is the fault-tolerance layer's
// contract (DESIGN.md §9): every injected fault ends in a clean typed
// error, a recovered session, or policy-conformant degradation — never a
// hang, and never a silently unscanned byte under the fail-closed policy.
package blindbox

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/middlebox"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/transport"
)

// chaosTimeouts are deliberately short so a wedged step fails the test in
// seconds, not minutes. Stall faults stay well under these bounds.
func chaosEndpointTimeouts() transport.Timeouts {
	return transport.Timeouts{
		Handshake: 3 * time.Second,
		Read:      3 * time.Second,
		Write:     3 * time.Second,
	}
}

func chaosMBTimeouts() middlebox.Timeouts {
	return middlebox.Timeouts{
		Handshake: 2 * time.Second,
		Prep:      3 * time.Second,
		Idle:      3 * time.Second,
		Write:     2 * time.Second,
		Barrier:   2 * time.Second,
	}
}

// chaosHarness is one live middlebox + echo server, shared by the
// sessions of one test.
type chaosHarness struct {
	t        *testing.T
	g        *RuleGenerator
	mb       *Middlebox
	mbAddr   string
	serverLn net.Listener
	mbLn     net.Listener

	mu     sync.Mutex
	alerts []Alert
}

// newChaosHarness builds the harness: a single-keyword ruleset, a
// middlebox with the given policy/timeouts, and an echo server whose
// endpoints carry chaos timeouts of their own.
func newChaosHarness(t *testing.T, policy middlebox.Policy, barrier time.Duration, onAlert func(Alert)) *chaosHarness {
	t.Helper()
	g, err := NewRuleGenerator("ChaosRG")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ParseRules("chaos",
		`alert tcp any any -> any any (msg:"kw"; content:"attack01"; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	h := &chaosHarness{t: t, g: g}
	tmo := chaosMBTimeouts()
	if barrier != 0 {
		tmo.Barrier = barrier
	}
	mbCfg := MiddleboxConfig{
		Ruleset:     g.Sign(rs),
		RGPublicKey: g.PublicKey(),
		Policy:      policy,
		Timeouts:    tmo,
		OnAlert: func(a Alert) {
			h.mu.Lock()
			h.alerts = append(h.alerts, a)
			h.mu.Unlock()
			if onAlert != nil {
				onAlert(a)
			}
		},
	}
	h.mb, err = NewMiddlebox(mbCfg)
	if err != nil {
		t.Fatal(err)
	}
	h.serverLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h.mbLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h.mbAddr = h.mbLn.Addr().String()
	epCfg := ConnConfig{
		Core:     DefaultConfig(),
		RG:       RGMaterial{TagKey: g.TagKey()},
		Timeouts: chaosEndpointTimeouts(),
	}
	go func() {
		for {
			raw, err := h.serverLn.Accept()
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
	go h.mb.Serve(h.mbLn, h.serverLn.Addr().String())
	t.Cleanup(func() {
		h.mbLn.Close()
		h.serverLn.Close()
	})
	return h
}

// alertConns returns the distinct connection IDs that produced alerts.
func (h *chaosHarness) alertConns() map[uint64]bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	ids := make(map[uint64]bool)
	for _, a := range h.alerts {
		ids[a.ConnID] = true
	}
	return ids
}

// closeMB closes the middlebox under a watchdog: a Close that cannot
// terminate is itself a fault-tolerance bug.
func (h *chaosHarness) closeMB(timeout time.Duration) {
	h.t.Helper()
	done := make(chan error, 1)
	go func() { done <- h.mb.Close() }()
	select {
	case err := <-done:
		if err != nil {
			h.t.Fatalf("middlebox Close: %v", err)
		}
	case <-time.After(timeout):
		h.t.Fatalf("middlebox Close did not return within %v", timeout)
	}
}

// chaosResult classifies one session outcome.
type chaosResult struct {
	echoed []byte
	err    error
}

// runChaosSession drives one echo session whose client socket is wrapped
// in fc, under a watchdog. A watchdog expiry is the one unacceptable
// outcome: it means some step blocked past every configured deadline.
func runChaosSession(t *testing.T, ccfg ConnConfig, fc net.Conn, payload []byte, watchdog time.Duration) chaosResult {
	t.Helper()
	resC := make(chan chaosResult, 1)
	go func() {
		conn, err := Client(fc, ccfg)
		if err != nil {
			resC <- chaosResult{err: err}
			return
		}
		defer conn.Close()
		for off := 0; off < len(payload); off += 2000 {
			end := off + 2000
			if end > len(payload) {
				end = len(payload)
			}
			if _, err := conn.Write(payload[off:end]); err != nil {
				resC <- chaosResult{err: err}
				return
			}
		}
		if err := conn.CloseWrite(); err != nil {
			resC <- chaosResult{err: err}
			return
		}
		echoed, err := io.ReadAll(conn)
		resC <- chaosResult{echoed: echoed, err: err}
	}()
	select {
	case res := <-resC:
		return res
	case <-time.After(watchdog):
		t.Fatal("chaos session hung: no outcome within the watchdog")
		return chaosResult{}
	}
}

// TestChaosSeededFaultSchedules replays deterministic fault schedules —
// resets, truncations, corruption, stalls and latency at seeded byte
// offsets, both directions — against live sessions. Every session must
// terminate (succeed or fail cleanly); the middlebox must stay available
// for the next session; and under the default fail-closed policy not one
// payload byte may be forwarded unscanned.
func TestChaosSeededFaultSchedules(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	h := newChaosHarness(t, middlebox.FailClosed, 0, nil)
	prof := netem.ScheduleProfile{Faults: 3, MaxOffset: 12 << 10, MaxDelay: 60 * time.Millisecond}
	ccfg := ConnConfig{
		Core:     Config{Protocol: ProtocolI, Mode: DelimiterTokens},
		RG:       RGMaterial{TagKey: h.g.TagKey()},
		Timeouts: chaosEndpointTimeouts(),
	}
	payload := conformancePayload(77, 6<<10)

	successes, failures, faultsFired := 0, 0, 0
	for seed := 0; seed < seeds; seed++ {
		schedule := netem.Schedule(uint64(seed), prof)
		raw, err := net.Dial("tcp", h.mbAddr)
		if err != nil {
			t.Fatal(err)
		}
		fc := netem.NewFaultConn(raw, schedule...)
		res := runChaosSession(t, ccfg, fc, payload, 15*time.Second)
		fc.Close()
		fired := fc.Fired()
		faultsFired += len(fired)
		switch {
		case res.err == nil && bytes.Equal(res.echoed, payload):
			successes++
		case res.err == nil && len(res.echoed) == 0:
			// Clean severance: the peer closed before echoing (EOF reads
			// as a successful empty ReadAll). Policy-conformant teardown.
			failures++
		case res.err == nil:
			t.Fatalf("seed %d: partial echo without error: %d of %d bytes (faults %v)",
				seed, len(res.echoed), len(payload), fired)
		default:
			failures++
			t.Logf("seed %d: clean failure %v (faults %v)", seed, res.err, fired)
		}
	}
	t.Logf("chaos: %d sessions, %d succeeded, %d failed cleanly, %d faults fired",
		seeds, successes, failures, faultsFired)
	if faultsFired == 0 {
		t.Fatal("no faults fired: the chaos run was vacuous")
	}

	h.closeMB(10 * time.Second)
	st := h.mb.Stats()
	if st.UnscannedBytes != 0 || st.Degraded != 0 {
		t.Fatalf("fail-closed middlebox forwarded unscanned traffic: %+v", st)
	}
	// Cross-check against the alert transcript: every fully-echoed session
	// carried the planted keyword through detection, so at least that many
	// distinct connections must have alerted.
	if got := len(h.alertConns()); got < successes {
		t.Fatalf("%d connections alerted, want >= %d (one per successful session)", got, successes)
	}
}

// TestChaosFailOpenDegradation stalls detection (a blocked alert sink
// keeps the flow's shard busy, so the detection barrier cannot drain) and
// verifies the fail-open policy: the session completes unscanned, the
// degradation is counted, and every unscanned byte is accounted.
func TestChaosFailOpenDegradation(t *testing.T) {
	gate := make(chan struct{})
	h := newChaosHarness(t, middlebox.FailOpen, 200*time.Millisecond,
		func(Alert) { <-gate })
	ccfg := ConnConfig{
		Core:     Config{Protocol: ProtocolI, Mode: DelimiterTokens},
		RG:       RGMaterial{TagKey: h.g.TagKey()},
		Timeouts: chaosEndpointTimeouts(),
	}
	payload := []byte("calm traffic then attack01 then more calm traffic to fill the record")
	raw, err := net.Dial("tcp", h.mbAddr)
	if err != nil {
		t.Fatal(err)
	}
	res := runChaosSession(t, ccfg, raw, payload, 15*time.Second)
	if res.err != nil {
		t.Fatalf("fail-open session did not survive detection stall: %v", res.err)
	}
	if !bytes.Equal(res.echoed, payload) {
		t.Fatalf("fail-open echo mismatch: %d bytes, want %d", len(res.echoed), len(payload))
	}
	close(gate) // release the stalled shard so Close can drain
	h.closeMB(10 * time.Second)
	st := h.mb.Stats()
	if st.Degraded == 0 {
		t.Fatalf("no flow recorded as degraded: %+v", st)
	}
	if st.UnscannedBytes == 0 {
		t.Fatalf("degraded flow forwarded data without accounting it unscanned: %+v", st)
	}
	if st.FailClosedDrops != 0 {
		t.Fatalf("fail-open middlebox recorded fail-closed drops: %+v", st)
	}
}

// TestChaosFailClosedDrop is the same detection stall under the default
// policy: the connection must be severed with zero payload bytes
// forwarded — the invariant the paper's threat model demands.
func TestChaosFailClosedDrop(t *testing.T) {
	gate := make(chan struct{})
	h := newChaosHarness(t, middlebox.FailClosed, 200*time.Millisecond,
		func(Alert) { <-gate })
	ccfg := ConnConfig{
		Core:     Config{Protocol: ProtocolI, Mode: DelimiterTokens},
		RG:       RGMaterial{TagKey: h.g.TagKey()},
		Timeouts: chaosEndpointTimeouts(),
	}
	payload := []byte("calm traffic then attack01 then more calm traffic to fill the record")
	raw, err := net.Dial("tcp", h.mbAddr)
	if err != nil {
		t.Fatal(err)
	}
	res := runChaosSession(t, ccfg, raw, payload, 15*time.Second)
	if res.err == nil && len(res.echoed) > 0 {
		t.Fatalf("fail-closed session delivered %d echoed bytes through a stalled detector", len(res.echoed))
	}
	close(gate)
	h.closeMB(10 * time.Second)
	st := h.mb.Stats()
	if st.FailClosedDrops == 0 {
		t.Fatalf("no fail-closed drop recorded: %+v", st)
	}
	if st.UnscannedBytes != 0 || st.Degraded != 0 {
		t.Fatalf("fail-closed middlebox degraded or forwarded unscanned traffic: %+v", st)
	}
	if st.BytesForwarded != 0 {
		t.Fatalf("fail-closed middlebox forwarded %d payload bytes past a stalled detector", st.BytesForwarded)
	}
}

// TestChaosCloseDuringStalledHandshake pins the Close contract for
// setup-phase connections: a peer that never sends its hello must not
// block shutdown, even with handshake deadlines disabled.
func TestChaosCloseDuringStalledHandshake(t *testing.T) {
	g, err := NewRuleGenerator("ChaosRG")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ParseRules("chaos", `alert tcp any any -> any any (msg:"kw"; content:"attack01"; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMiddlebox(MiddleboxConfig{
		Ruleset:     g.Sign(rs),
		RGPublicKey: g.PublicKey(),
		Timeouts: middlebox.Timeouts{
			Handshake: middlebox.NoTimeout, // promptness must come from Close itself
			Idle:      middlebox.NoTimeout,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clientMB, clientPeer := net.Pipe()
	serverMB, serverPeer := net.Pipe()
	defer clientPeer.Close()
	defer serverPeer.Close()
	errC := make(chan error, 1)
	go func() { errC <- mb.Interpose(clientMB, serverMB) }()
	time.Sleep(20 * time.Millisecond) // let Interpose block on the client hello

	done := make(chan error, 1)
	go func() { done <- mb.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on a connection stalled in its handshake")
	}
	select {
	case err := <-errC:
		if err == nil {
			t.Fatal("stalled interposition returned nil error after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Interpose did not return after Close severed its legs")
	}
}

// TestChaosHandshakeDeadline verifies the middlebox handshake deadline
// surfaces as a typed timeout instead of an indefinite block.
func TestChaosHandshakeDeadline(t *testing.T) {
	g, err := NewRuleGenerator("ChaosRG")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ParseRules("chaos", `alert tcp any any -> any any (msg:"kw"; content:"attack01"; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMiddlebox(MiddleboxConfig{
		Ruleset:     g.Sign(rs),
		RGPublicKey: g.PublicKey(),
		Timeouts:    middlebox.Timeouts{Handshake: 150 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	clientMB, clientPeer := net.Pipe()
	serverMB, serverPeer := net.Pipe()
	defer clientPeer.Close()
	defer serverPeer.Close()
	errC := make(chan error, 1)
	go func() { errC <- mb.Interpose(clientMB, serverMB) }()
	select {
	case err := <-errC:
		if !transport.IsTimeout(err) {
			t.Fatalf("stalled handshake error = %v, want a deadline expiry", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handshake deadline did not fire")
	}
}

// TestChaosDialRetryTyped verifies endpoint dial retry is bounded and
// surfaces a typed exhaustion error carrying the attempt count.
func TestChaosDialRetryTyped(t *testing.T) {
	// A listener that is immediately closed: every connect is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, err = Dial(addr, ConnConfig{
		Core:      DefaultConfig(),
		DialRetry: retry.Policy{Attempts: 2, Base: time.Millisecond},
	})
	var rerr *retry.Error
	if !errors.As(err, &rerr) {
		t.Fatalf("dial error = %v (%T), want *retry.Error", err, err)
	}
	if rerr.Attempts != 2 {
		t.Fatalf("retry attempts = %d, want 2", rerr.Attempts)
	}
}

// flightRecorderSession drives one echo session through a directly-driven
// Interpose, with the middlebox recording into rec. It returns once
// Interpose has ended the flow (so the flight recorder has settled its
// disposition).
func flightRecorderSession(t *testing.T, rec *obs.Recorder, payload []byte) {
	t.Helper()
	g, err := NewRuleGenerator("ChaosRG")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ParseRules("chaos",
		`alert tcp any any -> any any (msg:"kw"; content:"attack01"; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMiddlebox(MiddleboxConfig{
		Ruleset:     g.Sign(rs),
		RGPublicKey: g.PublicKey(),
		Recorder:    rec,
		Timeouts:    chaosMBTimeouts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()

	epCfg := ConnConfig{
		Core:     DefaultConfig(),
		RG:       RGMaterial{TagKey: g.TagKey()},
		Timeouts: chaosEndpointTimeouts(),
	}
	serverLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer serverLn.Close()
	go func() {
		raw, err := serverLn.Accept()
		if err != nil {
			return
		}
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
	mbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mbLn.Close()

	errC := make(chan error, 1)
	go func() {
		clientLeg, err := mbLn.Accept()
		if err != nil {
			errC <- err
			return
		}
		serverLeg, err := net.Dial("tcp", serverLn.Addr().String())
		if err != nil {
			clientLeg.Close()
			errC <- err
			return
		}
		errC <- mb.Interpose(clientLeg, serverLeg)
	}()

	raw, err := net.Dial("tcp", mbLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	res := runChaosSession(t, epCfg, raw, payload, 15*time.Second)
	if res.err != nil {
		t.Fatalf("session failed: %v", res.err)
	}
	select {
	case <-errC:
		// Interpose returned; its deferred End settled the flow.
	case <-time.After(10 * time.Second):
		t.Fatal("Interpose did not return after the session completed")
	}
}

// assertSingleTailTrace checks the flushed spans form one complete trace:
// every span tail-labeled, every span on the same trace ID, and the flow's
// lifecycle spans (conn, handshake) present alongside the wanted names.
func assertSingleTailTrace(t *testing.T, spans []obs.Span, want ...string) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("flight recorder flushed nothing")
	}
	names := map[string]int{}
	trace := spans[0].TraceID
	if trace == "" {
		t.Fatalf("flushed span carries no trace ID: %+v", spans[0])
	}
	for _, sp := range spans {
		names[sp.Name]++
		if sp.Sampled != "tail" {
			t.Fatalf("span %s labeled %q, want tail", sp.Name, sp.Sampled)
		}
		if sp.TraceID != trace {
			t.Fatalf("span %s on trace %s, want the flow's single trace %s", sp.Name, sp.TraceID, trace)
		}
	}
	for _, name := range append([]string{obs.SpanConn, obs.SpanHandshake}, want...) {
		if names[name] == 0 {
			t.Errorf("flushed trace is missing %s span(s); got %v", name, names)
		}
	}
}

// TestChaosAlertFlowFlushesFlightRecorder verifies the other interesting
// terminal state: an unsampled flow that fires an alert flushes a complete
// trace — scan, forward and the alert event — on a single trace ID.
func TestChaosAlertFlowFlushesFlightRecorder(t *testing.T) {
	sink := &obs.CollectSink{}
	rec := obs.NewRecorder(obs.RecorderConfig{Sample: 0, Sink: sink})
	flightRecorderSession(t, rec, conformancePayload(77, 6<<10))

	spans := sink.Spans()
	assertSingleTailTrace(t, spans, obs.SpanScan, obs.SpanForward, obs.SpanEventAlert)
	for _, sp := range spans {
		if sp.Name == obs.SpanEventAlert && sp.Err == "sid 1" {
			return
		}
	}
	t.Fatalf("no alert event for sid 1 in the flushed trace")
}
