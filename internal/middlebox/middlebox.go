// Package middlebox implements the BlindBox middlebox (§6): a proxy that
// interposes on BlindBox HTTPS connections, conducts obfuscated rule
// encryption with both endpoints ("garble threads"), runs BlindBox Detect
// over the encrypted token stream ("detection threads"), enforces rule
// actions, and — under Protocol III — feeds decrypted flows to a secondary
// inspection element (the paper's ssldump-wrapper plus Snort/Bro stage).
package middlebox

import (
	"bufio"
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
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/obs"
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
	// Metrics is the registry the middlebox registers its counters,
	// gauges and histograms in (see the obs.MB* catalog entries). When
	// nil, a private registry backs the counters so Stats keeps working;
	// pass a shared registry to expose them on an admin endpoint.
	Metrics *obs.Registry
	// Trace, when Recorder is nil, receives every per-flow span
	// (handshake, prep, scan, forward) as it is recorded (obs.StreamFlow).
	// Nil with a nil Recorder disables tracing; Emit must be safe for
	// concurrent use.
	Trace obs.Sink
	// Recorder, when set, records each flow in its flight recorder and
	// Trace is not read: head-sampled flows (the decision is adopted from
	// the client's hello, or taken here and injected into the forwarded
	// hello) stream their spans; flows ending in an interesting state —
	// alert, block, timeout, degradation, injected fault, connection
	// error — flush their whole ring; the rest are dropped.
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
	// SecondaryDroppedBytes counts Protocol III payload bytes the
	// decryption element evicted unseen from a flow's pending ring before
	// its key was recovered (obs.MBSecondaryDroppedBytes). The primary
	// detection scanned their tokens.
	SecondaryDroppedBytes uint64
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

		SecondaryDroppedBytes: mb.met.secDropped.Value(),
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
	var fr *obs.FlowRecorder
	if mb.recorder != nil {
		fr = mb.recorder.BeginFlowSampled(id, obs.PartyMB, flowCtx, head)
	} else {
		fr = obs.StreamFlow(mb.trace, id, obs.PartyMB, flowCtx)
	}
	// Registered before the conn-span defer so it runs after it (LIFO):
	// the connection span lands in the ring before End flushes or drops it.
	defer func() { fr.End(errString(retErr)) }()
	if ownRoot {
		// The middlebox owns the trace root: record the conn span covering
		// the whole interposition when it ends.
		defer func() { fr.Span(flowCtx, hsStart, obs.Span{Name: obs.SpanConn, Err: errString(retErr)}) }()
	}
	mb.met.handshake.Observe(time.Since(hsStart).Seconds())
	fr.Span(flowCtx.Child(), hsStart, obs.Span{Name: obs.SpanHandshake})

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
	prep.SetTrace(fr, prepCtx)
	// Building the rule-encryption circuit F dominates NewMiddlebox and is
	// part of the §3.3 rule-encryption step; without this span the head of
	// the preparation window would be unattributed.
	fr.Span(prepCtx.Child(), prepStart, obs.Span{Name: obs.SpanPrepRuleEnc, Gates: prep.CircuitANDs(), Rows: len(req.Fragments)})
	setDeadline(deadlineFor(mb.tmo.Prep), client, server)
	prepped, err := prep.Run(transport.PrepPort{R: cl.rd, W: client}, transport.PrepPort{R: sv.rd, W: server})
	setDeadline(time.Time{}, client, server)
	if err != nil {
		return fmt.Errorf("middlebox: rule preparation: %w", mb.stepTimeout(id, "prep", err))
	}
	keys := core.TokenKeysFromPrep(req, prepped)
	mb.met.prep.Observe(time.Since(prepStart).Seconds())
	fr.Span(prepCtx, prepStart, obs.Span{Name: obs.SpanPrep})

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
	flC.tctx, flC.fr = flowCtx.Child(), fr
	flS.tctx, flS.fr = flowCtx.Child(), fr
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

// interposeHello relays the hello exchange: each hello is parsed, marked
// MBPresent and forwarded re-encoded, so the far side receives only what
// the middlebox parsed (DESIGN.md §10 row 9). It returns the client hello
// and, when the middlebox traces, the flow's trace context and
// head-sampling decision as Hello.JoinTrace settles them on the forwarded
// hello: the client's, or a fresh root the middlebox owns (ownRoot) and a
// decision of its recorder, written in so the server joins the same trace.
// Deadlines are the caller's job.
func (mb *Middlebox) interposeHello(client, server *leg) (hello transport.Hello, flowCtx obs.SpanCtx, ownRoot, head bool, err error) {
	if hello, err = transport.ReadHello(client.rd, transport.RecHello); err != nil {
		return
	}
	if mb.trace != nil || mb.recorder != nil {
		flowCtx, head, ownRoot = hello.JoinTrace(mb.recorder)
	}
	if err = relayHello(server.conn, transport.RecHello, hello); err != nil {
		return
	}
	reply, err := transport.ReadHello(server.rd, transport.RecHelloReply)
	if err == nil {
		err = relayHello(client.conn, transport.RecHelloReply, reply)
	}
	return
}

// relayHello writes h to dst as a hello record of type typ, MBPresent set.
func relayHello(dst net.Conn, typ transport.RecordType, h transport.Hello) error {
	h.MBPresent = true
	return transport.WriteRecord(dst, typ, transport.MarshalHello(h))
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
	// fr records the connection's spans and events — alerts, blocks,
	// timeouts, degradation — so the flow's terminal state drives tail
	// sampling; nil when untraced, and all its methods are nil-safe.
	// Written once with tctx, then read-only.
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

	// Protocol III decryption element state. Before key recovery, data
	// records wait in pending; evicted counts the records it dropped, each
	// of which spent a sequence number, and skipBytes their payload bytes.
	// open is built once, at recovery, to start after the evicted records;
	// from then on each record is opened into pt and written to sec as it
	// arrives.
	open      *transport.DataCipher
	pending   pendingRing
	evicted   uint64
	skipBytes int
	pt        []byte
	sec       *baseline.Stream
}

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
	if fl.fr != nil {
		defer func() {
			fl.fr.Span(fl.tctx, fwdStart, obs.Span{Dir: string(fl.dir), Name: obs.SpanForward, Bytes: fwdBytes})
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
			if len(body) != 8 {
				fl.kill()
				return fmt.Errorf("middlebox: salt announcement of %d bytes", len(body))
			}
			if !fl.degraded {
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
			if !fl.degraded && fl.sec != nil {
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
	mb.met.scan.Observe(time.Since(start).Seconds())
	if fl.fr != nil {
		fl.fr.Span(fl.tctx.Child(), start, obs.Span{Dir: string(fl.dir), Name: obs.SpanScan, Shard: mb.pool.ids[shard], Tokens: tokens})
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
	if ev.HasSSLKey && fl.open == nil {
		fl.open = transport.NewDataCipher(ev.SSLKey, fl.dir == ServerToClient, fl.evicted)
		mb.met.keys.Inc()
		mb.log.Info("probable cause: SSL key recovered", "conn", fl.id, "dir", fl.dir)
		if mb.cfg.Secondary {
			mb.drainPending(fl)
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

// captureData hands one data record to the probable-cause element: it is
// decrypted and inspected at once when the key is known, and held in the
// flow's pending ring until then.
func (mb *Middlebox) captureData(fl *flow, body []byte) {
	if fl.open != nil {
		mb.decryptRecord(fl, body)
		return
	}
	// A data record is capped far below maxPendingBytes
	// (transport.ReadRecordInto), so it fits once the ring is empty.
	for !fl.pending.fits(len(body)) {
		mb.evictPending(fl, fl.pending.dropOldest())
	}
	fl.pending.push(body)
}

// evictPending accounts for one n-byte record the pending ring dropped
// unseen: it used up a sequence number and its payload's stream offsets.
func (mb *Middlebox) evictPending(fl *flow, n int) {
	dropped := max(0, n-transport.DataRecordOverhead)
	fl.evicted++
	fl.skipBytes += dropped
	mb.met.secDropped.Add(uint64(dropped))
}

// drainPending starts the flow's secondary inspection at key recovery. The
// records the ring evicted came before every record it still holds, and
// their sequence numbers are spent, so once their payload bytes are
// skipped the held records open under their own nonces, at their absolute
// offsets.
func (mb *Middlebox) drainPending(fl *flow) {
	fl.sec = mb.secondary.NewStream()
	fl.sec.Skip(fl.skipBytes)
	for fl.pending.used > 0 {
		fl.pt = fl.pending.pop(fl.pt)
		mb.decryptRecord(fl, fl.pt)
	}
	fl.pending = pendingRing{}
}

// decryptRecord opens one SSL record with the recovered kSSL — the
// ssldump-equivalent step of §6 — into the flow's reused open buffer, and
// inspects its payload. body may be that buffer itself. A record that does
// not open is skipped at its payload's length.
func (mb *Middlebox) decryptRecord(fl *flow, body []byte) {
	pt, err := fl.open.Open(fl.pt[:0], body)
	if err != nil {
		fl.sec.Skip(max(0, len(body)-transport.DataRecordOverhead))
		return
	}
	fl.pt = pt
	if len(pt) > 1 {
		fl.sec.Write(pt[1:])
	}
}

// secondaryInspect reports the full plaintext IDS's verdict (regexps
// included) on the decrypted flow at its close — the paper's "forwarded to
// any other system (Snort, Bro) for more complex processing".
func (mb *Middlebox) secondaryInspect(fl *flow) {
	res := fl.sec.Result()
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
