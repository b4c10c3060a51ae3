// Package middlebox implements the BlindBox middlebox (§6): a proxy that
// interposes on BlindBox HTTPS connections, conducts obfuscated rule
// encryption with both endpoints ("garble threads"), runs BlindBox Detect
// over the encrypted token stream ("detection threads"), enforces rule
// actions, and — under Protocol III — feeds decrypted flows to a secondary
// inspection element (the paper's ssldump-wrapper plus Snort/Bro stage).
package middlebox

import (
	"bufio"
	"crypto/cipher"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/garble"
	"repro/internal/obs"
	"repro/internal/ot"
	"repro/internal/retry"
	"repro/internal/ruleprep"
	"repro/internal/rules"
	"repro/internal/tokenize"
	"repro/internal/transport"
)

// Direction labels one half of a proxied connection.
type Direction string

// Directions of traffic through the middlebox.
const (
	ClientToServer Direction = "c2s"
	ServerToClient Direction = "s2c"
)

// Alert is one detection report.
type Alert struct {
	// ConnID identifies the proxied connection.
	ConnID uint64
	// Direction is the traffic direction the event occurred on.
	Direction Direction
	// Event is the primary detection event (zero for secondary alerts).
	Event detect.Event
	// Secondary marks alerts produced by the decrypted-flow inspection
	// element (Protocol III only).
	Secondary bool
	// SecondarySIDs lists rules matched by the secondary inspection.
	SecondarySIDs []int
}

// Config configures a Middlebox.
type Config struct {
	// Ruleset is the signed ruleset received from RG.
	Ruleset *rules.SignedRuleset
	// RGPublicKey verifies the ruleset's provenance.
	RGPublicKey ed25519.PublicKey
	// OnAlert receives detection reports; may be nil. It is called from
	// the detection shards (secondary alerts from the forwarding
	// goroutines) and MUST be safe for concurrent use: alerts of different
	// connections, and of the two directions of one connection, may be
	// delivered concurrently and in any relative order. Within one
	// connection direction, alerts are always delivered in stream order —
	// the flow is pinned to a single detection shard. A slow OnAlert
	// stalls its shard, and with it every flow pinned there (back-pressure,
	// and past Timeouts.Barrier the degradation Policy); it never loses
	// alerts.
	OnAlert func(Alert)
	// Secondary enables the Protocol III decryption element and
	// secondary full-rules inspection of flows with probable cause.
	Secondary bool
	// Policy selects the degradation stance when detection becomes
	// unavailable (the detection barrier exceeds Timeouts.Barrier). The
	// zero value is FailClosed — the paper's stance and the safe default.
	Policy Policy
	// Timeouts bounds the middlebox's blocking steps; zero fields select
	// DefaultTimeouts. See the Timeouts type for the step catalog.
	Timeouts Timeouts
	// DialRetry bounds HandleConn's upstream dial with jittered backoff.
	// The zero value retries retry.DefaultAttempts times; set Attempts
	// to 1 to disable retrying.
	DialRetry retry.Policy
	// PrepRetry bounds rule-preparation attempts per endpoint leg. Each
	// attempt restarts the preparation protocol from SubPrepStart (the
	// endpoint's preparation loop is restartable) under a fresh
	// Timeouts.Prep budget. The zero value retries retry.DefaultAttempts
	// times.
	PrepRetry retry.Policy
	// Metrics is the registry the middlebox registers its counters,
	// gauges and histograms in (see the obs.MB* catalog entries). When
	// nil, a private registry backs the counters so Stats keeps working;
	// pass a shared registry to expose them on an admin endpoint.
	Metrics *obs.Registry
	// Trace receives per-flow spans (handshake, prep, scan, forward).
	// Nil disables tracing; Emit must be safe for concurrent use.
	Trace obs.Sink
	// Recorder, when set, interposes a per-flow flight recorder between
	// the span producers and Trace: head-sampled flows (the decision is
	// adopted from the client's hello, or taken here and injected into
	// the forwarded hello) stream their spans; flows ending in an
	// interesting state — alert, block, timeout, degradation, prep-retry
	// exhaustion, injected fault, connection error — flush their whole
	// ring; the rest are dropped. Nil preserves the legacy
	// stream-everything behavior of Trace.
	Recorder *obs.Recorder
	// Logger receives structured connection-lifecycle and error logs.
	// Nil discards them.
	Logger *slog.Logger
}

// Stats aggregates middlebox counters. Every field is monotonic over the
// process lifetime — counters only ever increase, are never reset by
// Close or by connection teardown, and aggregate across all connections
// the middlebox has handled. The fields are snapshots of the same
// obs.Registry counters a /metrics scrape reads (obs.MB*Total), so the
// two views can never disagree beyond the skew of two concurrent loads.
type Stats struct {
	// Connections is the number of connections admitted (obs.MBConnectionsTotal).
	Connections uint64
	// ConnErrors counts connections that ended with a non-EOF error:
	// upstream dial failures, handshake-interposition or rule-preparation
	// failures (obs.MBConnErrorsTotal). Forwarding-phase teardown is not
	// counted — after the handshake, a severed leg is ordinary shutdown.
	ConnErrors uint64
	// TokensScanned counts encrypted tokens received for detection
	// (obs.MBTokensScannedTotal).
	TokensScanned uint64
	// BytesForwarded counts data-record payload bytes relayed
	// (obs.MBBytesForwarded).
	BytesForwarded uint64
	// Alerts counts detection events dispatched, secondary inspection
	// included (obs.MBAlertsTotal).
	Alerts uint64
	// Blocked counts connections severed by a block-action match
	// (obs.MBBlockedTotal).
	Blocked uint64
	// KeysRecovered counts Protocol III SSL keys recovered
	// (obs.MBKeysRecovered).
	KeysRecovered uint64
	// Degraded counts flows switched to fail-open unscanned forwarding
	// after a detection-barrier timeout (obs.MBDegradedTotal). Always zero
	// under FailClosed.
	Degraded uint64
	// FailClosedDrops counts connections severed by the fail-closed policy
	// after a detection-barrier timeout (obs.MBFailClosedDropsTotal).
	FailClosedDrops uint64
	// UnscannedBytes counts data-record payload bytes forwarded without
	// detection by degraded fail-open flows (obs.MBUnscannedBytes). The
	// fail-closed invariant is exactly UnscannedBytes == 0.
	UnscannedBytes uint64
}

// Middlebox proxies BlindBox HTTPS connections and inspects them.
type Middlebox struct {
	cfg       Config
	tmo       Timeouts
	secondary *baseline.IDS
	pool      *detectPool
	connSeq   atomic.Uint64
	met       *mbMetrics
	trace     obs.Sink
	recorder  *obs.Recorder
	log       *slog.Logger

	// lifecycle: Close waits for active connections, then drains the
	// detection pool. setup tracks connections still in their setup phase
	// (handshake interposition or rule preparation) so Close can sever
	// them promptly instead of waiting on a stalled peer; forwarding-phase
	// connections are unregistered and drain gracefully.
	mu     sync.Mutex
	closed bool
	setup  map[uint64][2]net.Conn
	connWG sync.WaitGroup
}

// ErrClosed is returned for connections arriving after Close.
var ErrClosed = errors.New("middlebox: closed")

// New validates the ruleset signature and builds the middlebox.
func New(cfg Config) (*Middlebox, error) {
	if cfg.Ruleset == nil {
		return nil, errors.New("middlebox: nil ruleset")
	}
	if cfg.RGPublicKey != nil && !rules.Verify(cfg.RGPublicKey, cfg.Ruleset) {
		return nil, errors.New("middlebox: ruleset signature invalid")
	}
	mb := &Middlebox{
		cfg:      cfg,
		tmo:      cfg.Timeouts.withDefaults(),
		met:      newMBMetrics(cfg.Metrics),
		trace:    cfg.Trace,
		recorder: cfg.Recorder,
		log:      obs.OrNop(cfg.Logger),
		setup:    make(map[uint64][2]net.Conn),
	}
	if cfg.Secondary {
		mb.secondary = baseline.New(cfg.Ruleset.Ruleset)
	}
	mb.pool = newDetectPool(mb, runtime.GOMAXPROCS(0), shardQueueDepth)
	return mb, nil
}

// DetectShards reports how many detection shards flows are pinned across:
// GOMAXPROCS as New found it.
func (mb *Middlebox) DetectShards() int {
	return len(mb.pool.chans)
}

// beginConn registers one active connection, failing after Close. The
// legs are tracked as setup-phase conns (under the same lock, so Close
// can never miss a just-admitted connection) until endSetup.
func (mb *Middlebox) beginConn(id uint64, client, server net.Conn) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrClosed
	}
	mb.connWG.Add(1)
	mb.setup[id] = [2]net.Conn{client, server}
	return nil
}

// endSetup unregisters a connection's setup-phase legs: from here on,
// Close waits for the connection to drain instead of severing it.
func (mb *Middlebox) endSetup(id uint64) {
	mb.mu.Lock()
	delete(mb.setup, id)
	mb.mu.Unlock()
}

// Close drains the middlebox: it stops admitting connections, severs
// connections still in their setup phase (a stalled handshake or rule
// preparation must not wedge shutdown), waits for forwarding-phase
// connections to finish (callers should close their listeners first, or
// kill connections, so this terminates), then drains the detection shards
// so every queued batch is scanned and every alert delivered. Close is
// idempotent.
func (mb *Middlebox) Close() error {
	mb.mu.Lock()
	wasClosed := mb.closed
	mb.closed = true
	severed := make([][2]net.Conn, 0, len(mb.setup))
	for _, legs := range mb.setup {
		severed = append(severed, legs)
	}
	mb.mu.Unlock()
	if wasClosed {
		return nil
	}
	for _, legs := range severed {
		_ = legs[0].Close()
		_ = legs[1].Close()
	}
	mb.connWG.Wait()
	mb.pool.close()
	return nil
}

// Stats returns a snapshot of the counters (see the Stats type for the
// semantics). It reads the same registry handles /metrics exposes.
func (mb *Middlebox) Stats() Stats {
	return Stats{
		Connections:     mb.met.conns.Value(),
		ConnErrors:      mb.met.connErrs.Value(),
		TokensScanned:   mb.met.tokens.Value(),
		BytesForwarded:  mb.met.bytes.Value(),
		Alerts:          mb.met.alerts.Value(),
		Blocked:         mb.met.blocked.Value(),
		KeysRecovered:   mb.met.keys.Value(),
		Degraded:        mb.met.degraded.Value(),
		FailClosedDrops: mb.met.fcDrops.Value(),
		UnscannedBytes:  mb.met.unscanned.Value(),
	}
}

// Serve accepts connections on ln and proxies each to forwardAddr until
// ln is closed. Connection-level failures are not fatal to the middlebox:
// they are logged (Config.Logger) and counted (Stats.ConnErrors) by the
// handling goroutine, never returned from Serve.
func (mb *Middlebox) Serve(ln net.Listener, forwardAddr string) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			// HandleConn has already counted and logged real failures with
			// the connection ID attached; EOF and post-Close arrivals are
			// ordinary shutdown.
			if err := mb.HandleConn(conn, forwardAddr); err != nil &&
				!errors.Is(err, io.EOF) && !errors.Is(err, ErrClosed) {
				mb.log.Debug("connection closed with error",
					"remote", conn.RemoteAddr().String(), "err", err)
			}
		}()
	}
}

// HandleConn proxies one client connection to forwardAddr, performing the
// full BlindBox lifecycle: handshake interposition, rule preparation,
// detection and forwarding.
func (mb *Middlebox) HandleConn(client net.Conn, forwardAddr string) error {
	defer client.Close()
	var server net.Conn
	pol := mb.cfg.DialRetry
	if pol.Notify == nil {
		pol.Notify = func(attempt int, err error, backoff time.Duration) {
			if backoff > 0 {
				mb.met.retried("dial")
				mb.log.Warn("upstream dial failed, retrying",
					"addr", forwardAddr, "attempt", attempt, "backoff", backoff, "err", err)
			}
		}
	}
	err := pol.Do(nil, func(int) error {
		var derr error
		server, derr = net.DialTimeout("tcp", forwardAddr, mb.dialTimeout())
		return derr
	})
	if err != nil {
		mb.met.connErrs.Inc()
		mb.log.Error("upstream dial failed", "addr", forwardAddr, "err", err)
		return fmt.Errorf("middlebox: dialing server: %w", err)
	}
	defer server.Close()
	return mb.Interpose(client, server)
}

// dialTimeout bounds one upstream connect attempt with the handshake
// knob (a disabled knob means an OS-default connect timeout).
func (mb *Middlebox) dialTimeout() time.Duration {
	if mb.tmo.Handshake > 0 {
		return mb.tmo.Handshake
	}
	return 0
}

// Interpose runs the middlebox over two established transports. A non-EOF
// failure before the forwarding phase is counted in Stats.ConnErrors and
// logged with the connection ID.
func (mb *Middlebox) Interpose(client, server net.Conn) error {
	id := mb.connSeq.Add(1)
	if err := mb.beginConn(id, client, server); err != nil {
		return err
	}
	defer mb.connWG.Done()
	defer mb.endSetup(id)
	mb.met.conns.Inc()
	mb.log.Debug("connection admitted", "conn", id)
	err := mb.interpose(id, client, server)
	if err != nil && !errors.Is(err, io.EOF) {
		mb.met.connErrs.Inc()
		mb.log.Error("connection failed", "conn", id, "err", err)
	}
	return err
}

// leg is one side of a proxied connection: the socket, and the one reader
// every record from it goes through, from the hello on — a reader placed in
// front of a later phase would lose what an earlier one read ahead.
type leg struct {
	conn net.Conn
	rd   *bufio.Reader
}

func newLeg(c net.Conn) *leg { return &leg{conn: c, rd: bufio.NewReaderSize(c, transport.BufSize)} }

func (mb *Middlebox) interpose(id uint64, client, server net.Conn) (retErr error) {
	// 1. Handshake interposition: mark MBPresent both ways, bounded by the
	// handshake deadline on both legs. When tracing, the client's trace
	// context is adopted from its hello (so middlebox spans become children
	// of the client's connection root); when only the middlebox traces, it
	// roots the trace itself and injects the context into the forwarded
	// hello so the server can still join (DESIGN.md §8).
	hsStart := time.Now()
	cl, sv := newLeg(client), newLeg(server)
	setDeadline(deadlineFor(mb.tmo.Handshake), client, server)
	hello, flowCtx, ownRoot, head, err := mb.interposeHello(cl, sv)
	setDeadline(time.Time{}, client, server)
	if err != nil {
		return mb.stepTimeout(id, "handshake", err)
	}
	fr := mb.recorder.BeginFlowSampled(id, obs.PartyMB, flowCtx, head)
	sink := mb.trace
	if fr != nil {
		sink = fr
	}
	if fr != nil {
		// Registered before the conn-span defer so it runs after it
		// (LIFO): the connection span and any harvested injected faults
		// land in the ring before End flushes or drops it.
		defer func() {
			mb.harvestFaults(fr, client, server)
			fr.End(errString(retErr))
		}()
	}
	if sink != nil && ownRoot {
		// The middlebox owns the trace root: emit the conn span covering
		// the whole interposition when it ends.
		defer func() {
			sp := obs.Span{
				Flow: id, Party: obs.PartyMB, Name: obs.SpanConn,
				Start: hsStart.UnixNano(), Dur: int64(time.Since(hsStart)),
				Err: errString(retErr),
			}
			flowCtx.Stamp(&sp)
			sink.Emit(sp)
		}()
	}
	hsSp := obs.Span{Flow: id, Party: obs.PartyMB, Name: obs.SpanHandshake}
	flowCtx.Child().Stamp(&hsSp)
	mb.observeSpan(sink, hsSp, hsStart, mb.met.handshake)

	cfg := core.Config{
		Protocol: hello.Protocol,
		Mode:     tokenize.Mode(hello.Mode),
		Salt0:    hello.Salt0,
	}

	// 2. Rule preparation with both endpoints (the "garble threads").
	prepStart := time.Now()
	prepCtx := flowCtx.Child()
	req := core.BuildRequest(mb.cfg.Ruleset, cfg.Mode)
	prep, err := ruleprep.NewMiddlebox(req)
	if err != nil {
		return err
	}
	prep.SetTrace(sink, prepCtx, id)
	if sink != nil {
		// Building the rule-encryption circuit F dominates NewMiddlebox and
		// is part of the §3.3 rule-encryption step; without this span the
		// head of the preparation window would be unattributed.
		sp := obs.Span{
			Flow: id, Party: obs.PartyMB, Name: obs.SpanPrepRuleEnc,
			Start: prepStart.UnixNano(), Dur: int64(time.Since(prepStart)),
			Gates: prep.CircuitANDs(), Rows: len(req.Fragments),
		}
		prepCtx.Child().Stamp(&sp)
		sink.Emit(sp)
	}
	var (
		jobsC, jobsS     []*ruleprep.FragmentJob
		labelsC, labelsS [][]bbcrypto.Block
		prepErr          [2]error
		wg               sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		jobsC, labelsC, prepErr[0] = mb.runPrepRetry(id, cl, prep, prepCtx, "client", sink, fr)
	}()
	go func() {
		defer wg.Done()
		jobsS, labelsS, prepErr[1] = mb.runPrepRetry(id, sv, prep, prepCtx, "server", sink, fr)
	}()
	wg.Wait()
	for _, e := range prepErr {
		if e != nil {
			return fmt.Errorf("middlebox: rule preparation: %w", mb.stepTimeout(id, "prep", e))
		}
	}

	keys := make(detect.TokenKeys)
	for i := range jobsC {
		key, err := prep.VerifyAndEvaluate(i, jobsC[i], jobsS[i], labelsC[i], labelsS[i])
		if err == ruleprep.ErrUnauthorized {
			continue
		}
		if err != nil {
			return err
		}
		keys[req.Fragments[i]] = key
	}

	for _, c := range []net.Conn{client, server} {
		if err := mb.writeRecordT(c, transport.RecGarble, []byte{transport.SubPrepDone}); err != nil {
			return mb.stepTimeout(id, "write", err)
		}
	}
	prepSp := obs.Span{Flow: id, Party: obs.PartyMB, Name: obs.SpanPrep}
	prepCtx.Stamp(&prepSp)
	mb.observeSpan(sink, prepSp, prepStart, mb.met.prep)

	// Setup is done: from here on Close drains instead of severing.
	mb.endSetup(id)

	// 3. Detection: one forwarding goroutine per direction. The forwarding
	// goroutines stay I/O-bound and the scanning happens on the flows'
	// detection shards (see pool.go).
	var fwdWG sync.WaitGroup
	fwdWG.Add(2)
	var stopOnce sync.Once
	kill := func() {
		stopOnce.Do(func() {
			_ = client.Close()
			_ = server.Close()
		})
	}
	flC := mb.newFlow(id, ClientToServer, cfg, keys, kill)
	flS := mb.newFlow(id, ServerToClient, cfg, keys, kill)
	// Forward-span contexts are fixed before the goroutines start; scan
	// spans on the detection shards parent to their direction's forward
	// span, so per-batch detection shows up under the right direction.
	flC.tctx = flowCtx.Child()
	flS.tctx = flowCtx.Child()
	flC.sink, flC.fr = sink, fr
	flS.sink, flS.fr = sink, fr
	// The error that ends a direction is ordinary teardown — a severed leg
	// kills the other — so it is logged, not counted as a connection error.
	fwd := func(src *leg, dst net.Conn, fl *flow) {
		defer fwdWG.Done()
		if err := mb.forward(src, dst, fl); err != nil && !errors.Is(err, io.EOF) {
			mb.log.Debug("forwarding ended", "conn", id, "dir", fl.dir, "err", err)
		}
	}
	go fwd(cl, server, flC)
	go fwd(sv, client, flS)
	fwdWG.Wait()
	return nil
}

// interposeHello relays the hello exchange, marking MBPresent both ways,
// and returns the parsed client hello plus the flow's trace context.
// Deadlines are the caller's job.
//
// The returned SpanCtx is the parent context middlebox spans hang off:
// the client's connection root when the client sent trace context, or a
// fresh root owned by the middlebox (ownRoot true) when only the
// middlebox traces — in which case the context is injected into the
// forwarded hello so the server joins the same trace. head is the flow's
// head-sampling decision: adopted from the client's hello when present,
// otherwise taken by the middlebox's recorder and injected into the
// forwarded hello so the server agrees.
func (mb *Middlebox) interposeHello(client, server *leg) (transport.Hello, obs.SpanCtx, bool, bool, error) {
	var (
		flowCtx obs.SpanCtx
		ownRoot bool
		head    bool
	)
	fail := func(err error) (transport.Hello, obs.SpanCtx, bool, bool, error) {
		return transport.Hello{}, obs.SpanCtx{}, false, false, err
	}
	typ, body, err := transport.ReadRecord(client.rd)
	if err != nil {
		return fail(err)
	}
	if typ != transport.RecHello {
		return fail(fmt.Errorf("middlebox: expected client hello, got %d", typ))
	}
	hello, err := transport.UnmarshalHello(body)
	if err != nil {
		return fail(err)
	}
	if mb.trace != nil || mb.recorder != nil {
		if hello.HasTrace {
			flowCtx = obs.JoinSpanCtx(obs.TraceID(hello.TraceID), hello.TraceSpan)
		} else {
			flowCtx = obs.NewSpanCtx()
			ownRoot = true
			if body, err = transport.AppendHelloTrace(body, flowCtx.Trace, flowCtx.Span); err != nil {
				return fail(err)
			}
		}
		if mb.recorder != nil {
			if hello.HasSample {
				head = hello.Sampled
			} else {
				head = mb.recorder.Decide(flowCtx.Trace)
				if body, err = transport.AppendHelloSampled(body, head); err != nil {
					return fail(err)
				}
			}
		}
	}
	if err := transport.SetMBPresent(body); err != nil {
		return fail(err)
	}
	if err := transport.WriteRecord(server.conn, transport.RecHello, body); err != nil {
		return fail(err)
	}
	typ, body, err = transport.ReadRecord(server.rd)
	if err != nil {
		return fail(err)
	}
	if typ != transport.RecHelloReply {
		return fail(fmt.Errorf("middlebox: expected server hello, got %d", typ))
	}
	if err := transport.SetMBPresent(body); err != nil {
		return fail(err)
	}
	if err := transport.WriteRecord(client.conn, transport.RecHelloReply, body); err != nil {
		return fail(err)
	}
	return hello, flowCtx, ownRoot, head, nil
}

// runPrepRetry runs the preparation protocol over one leg under
// Config.PrepRetry: each attempt restarts from SubPrepStart (the
// endpoint's preparation loop is restartable) with a fresh Timeouts.Prep
// deadline. Retries are counted (obs.MBRetriesTotal, op=prep) and logged.
func (mb *Middlebox) runPrepRetry(id uint64, l *leg, prep *ruleprep.Middlebox, prepCtx obs.SpanCtx, legName string, sink obs.Sink, fr *obs.FlowRecorder) ([]*ruleprep.FragmentJob, [][]bbcrypto.Block, error) {
	var (
		jobs   []*ruleprep.FragmentJob
		labels [][]bbcrypto.Block
	)
	pol := mb.cfg.PrepRetry
	if pol.Notify == nil {
		pol.Notify = func(attempt int, err error, backoff time.Duration) {
			if backoff > 0 {
				mb.met.retried("prep")
				fr.Event(obs.SpanEventRetry, legName, "prep")
				mb.log.Warn("rule preparation failed, retrying",
					"conn", id, "attempt", attempt, "backoff", backoff, "err", err)
			}
		}
	}
	err := pol.Do(nil, func(int) error {
		setDeadline(deadlineFor(mb.tmo.Prep), l.conn)
		defer setDeadline(time.Time{}, l.conn)
		var aerr error
		jobs, labels, aerr = mb.runPrep(id, l, prep, prepCtx, legName, sink)
		return aerr
	})
	return jobs, labels, err
}

// writeRecordT writes one record under the Write deadline.
func (mb *Middlebox) writeRecordT(c net.Conn, typ transport.RecordType, body []byte) error {
	_ = c.SetWriteDeadline(deadlineFor(mb.tmo.Write))
	err := transport.WriteRecord(c, typ, body)
	_ = c.SetWriteDeadline(time.Time{})
	return err
}

// runPrep executes the MB side of the preparation protocol over one leg.
// When tracing, it breaks the leg into the §3.3 setup sub-spans — labels
// (garbled rows + endpoint-label transfer, which includes the wait for the
// endpoint's garbling), ot_base (base-OT round) and ot_ext (IKNP extension
// + unmask) — all children of the flow's prep span, Dir marking the leg.
func (mb *Middlebox) runPrep(id uint64, l *leg, prep *ruleprep.Middlebox, prepCtx obs.SpanCtx, legName string, sink obs.Sink) ([]*ruleprep.FragmentJob, [][]bbcrypto.Block, error) {
	emit := func(name string, start time.Time, fill func(*obs.Span)) {
		if sink == nil {
			return
		}
		sp := obs.Span{
			Flow: id, Dir: legName, Party: obs.PartyMB, Name: name,
			Start: start.UnixNano(), Dur: int64(time.Since(start)),
		}
		if fill != nil {
			fill(&sp)
		}
		prepCtx.Child().Stamp(&sp)
		sink.Emit(sp)
	}
	n := prep.NumFragments()
	start := make([]byte, 5)
	start[0] = transport.SubPrepStart
	binary.BigEndian.PutUint32(start[1:], uint32(n))
	if err := transport.WriteRecord(l.conn, transport.RecGarble, start); err != nil {
		return nil, nil, err
	}
	labStart := time.Now()
	var labBytes, labGates, labRows int

	readSub := func(want byte) ([]byte, error) {
		typ, body, err := transport.ReadRecord(l.rd)
		if err != nil {
			return nil, err
		}
		if typ != transport.RecGarble || len(body) < 1 || body[0] != want {
			return nil, fmt.Errorf("middlebox: expected prep message %d", want)
		}
		return body[1:], nil
	}

	jobs := make([]*ruleprep.FragmentJob, n)
	for i := 0; i < n; i++ {
		payload, err := readSub(transport.SubCircuit)
		if err != nil {
			return nil, nil, err
		}
		if len(payload) < 8 {
			return nil, nil, errors.New("middlebox: short circuit message")
		}
		idx := int(binary.BigEndian.Uint32(payload))
		blobLen := int(binary.BigEndian.Uint32(payload[4:]))
		payload = payload[8:]
		if len(payload) < blobLen {
			return nil, nil, errors.New("middlebox: truncated circuit blob")
		}
		g, err := garble.Unmarshal(payload[:blobLen])
		if err != nil {
			return nil, nil, err
		}
		epLabels, err := transport.UnmarshalBlocks(payload[blobLen:])
		if err != nil {
			return nil, nil, err
		}
		if idx < 0 || idx >= n || jobs[idx] != nil {
			return nil, nil, errors.New("middlebox: bad circuit index")
		}
		st := g.Stats()
		labBytes += 8 + len(payload)
		labGates += st.Gates
		labRows += st.TableRows
		jobs[idx] = ruleprep.NewFragmentJob(idx, g, epLabels)
	}
	emit(obs.SpanPrepLabels, labStart, func(sp *obs.Span) {
		sp.Bytes, sp.Gates, sp.Rows = labBytes, labGates, labRows
	})

	// OT batch over all fragments' choice bits.
	obStart := time.Now()
	recv, msgAs, err := ot.NewExtReceiver()
	if err != nil {
		return nil, nil, err
	}
	if err := transport.WriteRecord(l.conn, transport.RecGarble,
		transport.AppendByteSlices([]byte{transport.SubOTMsgA}, msgAs)); err != nil {
		return nil, nil, err
	}
	payload, err := readSub(transport.SubOTMsgB)
	if err != nil {
		return nil, nil, err
	}
	msgBs, err := transport.UnmarshalByteSlices(payload)
	if err != nil {
		return nil, nil, err
	}
	emit(obs.SpanPrepOTBase, obStart, func(sp *obs.Span) { sp.Bytes = len(payload) })
	oeStart := time.Now()
	var choices []bool
	for i := 0; i < n; i++ {
		choices = append(choices, prep.Choices(i)...)
	}
	u, err := recv.Extend(msgBs, choices)
	if err != nil {
		return nil, nil, err
	}
	if err := transport.WriteRecord(l.conn, transport.RecGarble,
		transport.AppendByteSlices([]byte{transport.SubOTU}, u)); err != nil {
		return nil, nil, err
	}
	payload, err = readSub(transport.SubOTMasked)
	if err != nil {
		return nil, nil, err
	}
	flat, err := transport.UnmarshalBlocks(payload)
	if err != nil {
		return nil, nil, err
	}
	if len(flat) != 2*len(choices) {
		return nil, nil, errors.New("middlebox: masked pair count mismatch")
	}
	pairs := make([][2]bbcrypto.Block, len(choices))
	for j := range pairs {
		pairs[j][0], pairs[j][1] = flat[2*j], flat[2*j+1]
	}
	labels, err := recv.Receive(pairs, choices)
	if err != nil {
		return nil, nil, err
	}
	emit(obs.SpanPrepOTExt, oeStart, func(sp *obs.Span) {
		st := recv.Stats()
		sp.Bytes = st.CorrectionBytes + st.MaskedBytes
		sp.Rows = st.Wires
	})
	perFrag := make([][]bbcrypto.Block, n)
	for i := 0; i < n; i++ {
		perFrag[i] = labels[i*256 : (i+1)*256]
	}
	return jobs, perFrag, nil
}

// flow is per-direction detection state. Its mutable fields are confined:
// the engine and the probable-cause state are touched either by the flow's
// single detection shard (during jobs) or by the forwarding goroutine
// strictly after a detection barrier (flow.waitTimeout), never
// concurrently.
type flow struct {
	id     uint64
	dir    Direction
	cfg    core.Config
	engine *detect.Engine
	// kill severs both legs of the connection (idempotent).
	kill func()
	// tctx is the trace context of this direction's forward span; scan
	// spans stamp children of it. Written once before the forwarding
	// goroutine starts, then read-only (shards read it concurrently).
	tctx obs.SpanCtx
	// sink receives this flow's spans: the connection's flight recorder
	// when one exists, else the middlebox-wide trace sink, else nil.
	// Written once with tctx, then read-only.
	sink obs.Sink
	// fr is the connection's flight recorder (nil without one); events —
	// alerts, blocks, timeouts, degradation — are recorded through it so
	// the flow's terminal state drives tail sampling. All FlowRecorder
	// methods are nil-safe.
	fr *obs.FlowRecorder
	// shard is the detection shard this flow is pinned to.
	shard int
	// inflight counts the flow's queued jobs that the shard has not
	// finished; a zero load means the detection barrier is clear. The
	// forwarding goroutine is the only one that adds to it and the only
	// one that waits on it.
	inflight atomic.Int64
	// drained has one slot. The worker that takes inflight to zero puts a
	// signal in it if it is empty; a signal left over from an earlier
	// drain only costs the waiter one more look at inflight.
	drained chan struct{}
	// timer bounds barrier waits. It is created by the first wait that has
	// to block and reused by every later one; only the forwarding
	// goroutine touches it.
	timer *time.Timer
	// degraded marks a fail-open flow whose detection barrier timed out:
	// it stops enqueueing and forwards unscanned. Only the forwarding
	// goroutine touches it.
	degraded bool
	// blocked is set (once) when a block-action rule matched.
	blocked atomic.Bool
	// free has one slot: the shard puts a batch's token buffer back after
	// ScanBatch, and the forwarding goroutine unmarshals the next batch into
	// it. A flow that waits at the barrier between batches reuses one
	// buffer; a buffer that finds the slot taken is dropped.
	free chan []dpienc.EncryptedToken

	// Protocol III decryption element state. aead is built once, at key
	// recovery; nonce is the direction byte, then seq in bytes 4–11.
	// overflow counts the records that arrived before recovery with the
	// buffer full: they are lost, but each used up a sequence number.
	recovered  bool
	aead       cipher.AEAD
	ciphertext [][]byte // buffered data records awaiting a key
	overflow   uint64
	plaintext  []byte // decrypted stream for secondary inspection
	seq        uint64
	nonce      [12]byte
}

// maxBuffered bounds probable-cause buffering per direction.
const (
	maxBufferedRecords = 4096
	maxPlaintextBytes  = 4 << 20
)

func (mb *Middlebox) newFlow(id uint64, dir Direction, cfg core.Config, keys detect.TokenKeys, kill func()) *flow {
	fl := &flow{
		id:      id,
		dir:     dir,
		cfg:     cfg,
		kill:    kill,
		shard:   mb.pool.shardIndex(id, dir),
		drained: make(chan struct{}, 1),
		free:    make(chan []dpienc.EncryptedToken, 1),
		engine: detect.NewEngine(mb.cfg.Ruleset.Ruleset, keys, detect.Config{
			Mode:     cfg.Mode,
			Protocol: cfg.Protocol,
			Salt0:    cfg.Salt0,
		}),
	}
	if dir == ServerToClient {
		fl.nonce[0] = 1
	}
	return fl
}

// tokenBuf takes the flow's free token buffer, or nil when the shard still
// holds it (UnmarshalTokensInto then allocates one).
func (fl *flow) tokenBuf() []dpienc.EncryptedToken {
	select {
	case b := <-fl.free:
		return b
	default:
		return nil
	}
}

// recycle offers a token buffer back to the flow once nothing reads it.
func (fl *flow) recycle(toks []dpienc.EncryptedToken) {
	select {
	case fl.free <- toks:
	default: // the slot holds another buffer
	}
}

// enqueue hands a detection job for this flow to its shard.
func (fl *flow) enqueue(p *detectPool, job detectJob) {
	fl.inflight.Add(1)
	p.submit(job)
}

// done marks one of the flow's jobs finished; the shard worker calls it
// after the job's events are dispatched.
func (fl *flow) done() {
	if fl.inflight.Add(-1) == 0 {
		select {
		case fl.drained <- struct{}{}:
		default: // a signal is already waiting
		}
	}
}

// waitTimeout is the detection barrier: it returns true once every queued
// batch of this flow has been scanned and its events dispatched, false if
// d elapses first. d <= 0 waits forever. A flow whose wait timed out still
// has jobs queued; barrierWait degrades or kills it, so it enqueues no
// more, and the worker's later done calls signal nobody.
func (fl *flow) waitTimeout(d time.Duration) bool {
	if fl.inflight.Load() == 0 {
		return true
	}
	var expired <-chan time.Time
	if d > 0 {
		if fl.timer == nil {
			fl.timer = time.NewTimer(d)
		} else {
			fl.timer.Reset(d)
		}
		defer stopTimer(fl.timer)
		expired = fl.timer.C
	}
	for {
		select {
		case <-fl.drained:
			if fl.inflight.Load() == 0 {
				return true
			}
		case <-expired:
			return false
		}
	}
}

// stopTimer stops t and empties its channel, so the next Reset starts
// clean under the pre-Go 1.23 timer rules this module's go directive
// selects.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// forward relays records from src to dst while feeding the token channel to
// detection: token batches are queued on the flow's shard and only
// data/close records wait for detection (the barrier). It returns the read
// or write error that ended the flow (io.EOF when the sender closed it; nil
// when the flow was blocked or dropped, which is counted where it is
// decided), a *transport.RecordCapError among them.
//
// Records are relayed through a bufio.Writer, flushed whenever the next
// record is not already buffered whole: the token and data records that
// arrived in one read leave in one write, and no record waits behind a read
// that could block. After a block nothing is flushed, so the data record
// that completed a match never reaches the peer.
func (mb *Middlebox) forward(src *leg, dst net.Conn, fl *flow) error {
	fwdStart := time.Now()
	fwdBytes := 0
	if fl.sink != nil {
		defer func() {
			sp := obs.Span{
				Flow: fl.id, Dir: string(fl.dir), Party: obs.PartyMB, Name: obs.SpanForward,
				Start: fwdStart.UnixNano(), Dur: int64(time.Since(fwdStart)),
				Bytes: fwdBytes,
			}
			fl.tctx.Stamp(&sp)
			fl.sink.Emit(sp)
		}()
	}
	w := bufio.NewWriterSize(deadlineWriter{dst, mb.tmo.Write}, transport.BufSize)
	p3 := fl.cfg.Protocol == dpienc.ProtocolIII
	var body []byte // the last record's body, reused by every record
	for {
		if !transport.RecordBuffered(src.rd) {
			// The next read may block: nothing may wait behind it.
			if fl.blocked.Load() {
				return nil
			}
			if err := w.Flush(); err != nil {
				return mb.endForward(fl, "write", err)
			}
			_ = src.conn.SetReadDeadline(deadlineFor(mb.tmo.Idle))
		}
		typ, b, err := transport.ReadRecordInto(src.rd, body)
		if err != nil {
			return mb.endForward(fl, "idle", err)
		}
		body = b
		switch typ {
		case transport.RecSalt:
			if len(body) == 8 && !fl.degraded {
				// Resets ride the shard queue so they stay ordered with the
				// surrounding token batches.
				fl.enqueue(mb.pool, detectJob{fl: fl, salt: binary.BigEndian.Uint64(body), reset: true})
			}
		case transport.RecTokens:
			toks, err := transport.UnmarshalTokensInto(fl.tokenBuf(), body, p3)
			if err != nil {
				fl.kill()
				return err
			}
			if fl.degraded {
				// Detection is unavailable and the engine's counters are
				// out of sync; the record is forwarded unscanned below.
				fl.recycle(toks)
				break
			}
			mb.met.tokens.Add(uint64(len(toks)))
			fl.enqueue(mb.pool, detectJob{fl: fl, toks: toks})
		case transport.RecData:
			// Detection barrier: the block policy and the probable-cause
			// element must have seen every token preceding this payload.
			if !mb.barrierWait(fl) {
				return nil
			}
			mb.met.bytes.Add(uint64(len(body)))
			fwdBytes += len(body)
			if fl.degraded {
				mb.met.unscanned.Add(uint64(len(body)))
			} else if mb.cfg.Secondary && p3 {
				mb.captureData(fl, body)
			}
		case transport.RecClose:
			if !mb.barrierWait(fl) {
				return nil
			}
			if !fl.degraded && fl.recovered && len(fl.plaintext) > 0 {
				mb.secondaryInspect(fl)
			}
		}
		if fl.blocked.Load() {
			// dispatchEvent already severed the connection and counted the
			// block; do not forward the record that completed the match.
			return nil
		}
		// Errors are sticky in w: the body's write reports the header's.
		_, _ = w.Write(transport.AppendHeader(w.AvailableBuffer(), typ, len(body)))
		if _, err := w.Write(body); err != nil {
			return mb.endForward(fl, "write", err)
		}
	}
}

// deadlineWriter writes to a connection under a fresh write deadline per
// Write: what a bufio.Writer hands down is a flush, or a record too large to
// buffer.
type deadlineWriter struct {
	c net.Conn
	d time.Duration
}

func (w deadlineWriter) Write(p []byte) (int, error) {
	_ = w.c.SetWriteDeadline(deadlineFor(w.d))
	return w.c.Write(p)
}

// endForward severs the connection after a failed read ("idle") or write
// step, counting and logging a deadline expiry, and returns err.
func (mb *Middlebox) endForward(fl *flow, step string, err error) error {
	if transport.IsTimeout(err) {
		mb.met.timeout(step)
		fl.fr.Event(obs.SpanEventTimeout, string(fl.dir), step)
		mb.log.Warn(step+" deadline exceeded", "conn", fl.id, "dir", fl.dir)
	}
	fl.kill()
	return err
}

// barrierWait runs the detection barrier, bounded by Timeouts.Barrier, and
// reports whether forwarding may continue. On a barrier timeout it applies
// the degradation policy: FailOpen marks the flow degraded (the record is
// then forwarded unscanned and counted) and returns true; FailClosed
// severs the connection and returns false.
func (mb *Middlebox) barrierWait(fl *flow) bool {
	if fl.degraded {
		// A degraded flow stopped enqueueing; nothing to wait for.
		return true
	}
	start := time.Now()
	if fl.waitTimeout(mb.tmo.Barrier) {
		mb.met.barrier.Observe(time.Since(start).Seconds())
		return true
	}
	mb.met.timeout("barrier")
	fl.fr.Event(obs.SpanEventTimeout, string(fl.dir), "barrier")
	if mb.cfg.Policy == FailOpen {
		fl.degraded = true
		mb.met.degraded.Inc()
		fl.fr.Event(obs.SpanEventDegraded, string(fl.dir), "fail-open")
		mb.log.Warn("detection unavailable, degrading to fail-open forwarding",
			"conn", fl.id, "dir", fl.dir, "barrier", mb.tmo.Barrier)
		return true
	}
	mb.met.fcDrops.Inc()
	fl.fr.Event(obs.SpanEventDegraded, string(fl.dir), "fail-closed-drop")
	mb.log.Warn("detection unavailable, severing connection (fail-closed)",
		"conn", fl.id, "dir", fl.dir, "barrier", mb.tmo.Barrier)
	fl.kill()
	return false
}

// observeScan records one ScanBatch in the scan histogram and, when tracing,
// as a scan span. This runs once per token batch on the detection shards —
// the hottest span-producing path in the process — so it must not allocate.
//
//bb:hotpath
func (mb *Middlebox) observeScan(fl *flow, start time.Time, shard, tokens int) {
	dur := time.Since(start)
	mb.met.scan.Observe(dur.Seconds())
	if fl.sink != nil {
		sp := obs.Span{
			Flow: fl.id, Dir: string(fl.dir), Party: obs.PartyMB,
			Name: obs.SpanScan, Shard: mb.pool.ids[shard],
			Start: start.UnixNano(), Dur: int64(dur), Tokens: tokens,
		}
		fl.tctx.Child().Stamp(&sp)
		fl.sink.Emit(sp)
	}
}

// observeSpan records dur-since-start in h and, when sink is non-nil,
// emits sp with the timing filled in.
func (mb *Middlebox) observeSpan(sink obs.Sink, sp obs.Span, start time.Time, h *obs.Histogram) {
	dur := time.Since(start)
	h.Observe(dur.Seconds())
	if sink != nil {
		sp.Start = start.UnixNano()
		sp.Dur = int64(dur)
		sink.Emit(sp)
	}
}

// dispatchEvent reports one detection event and enforces the rule action.
// It runs on the flow's detection shard.
func (mb *Middlebox) dispatchEvent(fl *flow, ev detect.Event) {
	mb.met.alerts.Inc()
	if ev.Kind == detect.RuleMatch {
		mb.met.ruleAlert(ev.Rule.SID)
		fl.fr.Event(obs.SpanEventAlert, string(fl.dir), "sid "+strconv.Itoa(ev.Rule.SID))
	} else {
		fl.fr.Event(obs.SpanEventAlert, string(fl.dir), "keyword")
	}
	if ev.HasSSLKey && !fl.recovered {
		fl.recovered = true
		fl.aead = bbcrypto.NewGCM(ev.SSLKey)
		mb.met.keys.Inc()
		mb.log.Info("probable cause: SSL key recovered", "conn", fl.id, "dir", fl.dir)
		if mb.cfg.Secondary {
			mb.drainBuffered(fl)
		}
	}
	if mb.cfg.OnAlert != nil {
		mb.cfg.OnAlert(Alert{ConnID: fl.id, Direction: fl.dir, Event: ev})
	}
	if ev.Kind == detect.RuleMatch && ev.Rule.Action == rules.Block {
		if fl.blocked.CompareAndSwap(false, true) {
			mb.met.blocked.Inc()
			fl.fr.Event(obs.SpanEventBlocked, string(fl.dir), "sid "+strconv.Itoa(ev.Rule.SID))
			mb.log.Info("block rule matched, severing connection",
				"conn", fl.id, "dir", fl.dir, "sid", ev.Rule.SID)
			fl.kill()
		}
	}
}

// captureData buffers or decrypts one data record for the probable-cause
// element.
func (mb *Middlebox) captureData(fl *flow, body []byte) {
	if !fl.recovered {
		if len(fl.ciphertext) < maxBufferedRecords {
			fl.ciphertext = append(fl.ciphertext, append([]byte(nil), body...))
		} else {
			fl.overflow++
		}
		return
	}
	mb.decryptRecord(fl, body)
}

// drainBuffered decrypts records buffered before key recovery, then skips
// the sequence numbers of those that overflowed the buffer (they came after
// every buffered one), so the next record opens under its own nonce.
func (mb *Middlebox) drainBuffered(fl *flow) {
	for _, rec := range fl.ciphertext {
		mb.decryptRecord(fl, rec)
	}
	fl.ciphertext = nil
	fl.seq += fl.overflow
	fl.overflow = 0
}

// dataAD is every data record's additional data: its record type.
var dataAD = []byte{byte(transport.RecData)}

// decryptRecord opens one SSL record with the recovered kSSL — the
// ssldump-equivalent step of §6. body is the forwarded record, so it is
// opened into a plaintext of its own.
func (mb *Middlebox) decryptRecord(fl *flow, body []byte) {
	binary.BigEndian.PutUint64(fl.nonce[4:], fl.seq)
	fl.seq++
	pt, err := fl.aead.Open(nil, fl.nonce[:], body, dataAD)
	if err != nil || len(pt) < 1 {
		return
	}
	if len(fl.plaintext) < maxPlaintextBytes {
		fl.plaintext = append(fl.plaintext, pt[1:]...)
	}
}

// secondaryInspect runs the full plaintext IDS (regexps included) over the
// decrypted flow — the paper's "forwarded to any other system (Snort, Bro)
// for more complex processing".
func (mb *Middlebox) secondaryInspect(fl *flow) {
	res := mb.secondary.Inspect(fl.plaintext)
	if len(res.RuleSIDs) == 0 || mb.cfg.OnAlert == nil {
		return
	}
	mb.met.alerts.Add(uint64(len(res.RuleSIDs)))
	for _, sid := range res.RuleSIDs {
		mb.met.ruleAlert(sid)
		fl.fr.Event(obs.SpanEventAlert, string(fl.dir), "secondary sid "+strconv.Itoa(sid))
	}
	mb.cfg.OnAlert(Alert{ConnID: fl.id, Direction: fl.dir, Secondary: true, SecondarySIDs: res.RuleSIDs})
}
