// Per-flow distributed tracing: span records for the pipeline stages
// (connection, handshake, rule preparation and its §3.3 sub-phases,
// tokenize, encrypt, scan, forward) with flow, shard, trace, span and
// parent IDs. Spans go to a pluggable Sink; the JSONL sink makes them
// greppable and consumable by `bbtrace -spans` / `bbtrace -assemble`.
//
// Schema v2 (DESIGN.md §8): every span may carry a 128-bit TraceID shared
// by all three parties of one BlindBox flow (negotiated in the hello
// extension), a process-unique SpanID, and the SpanID of its parent. The
// client's connection span is the root (parent 0); when only the
// middlebox traces, it creates the root itself and injects the context
// into the forwarded hello so the server can still join the trace.

package obs

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span names emitted by the pipeline. The set is closed on purpose: tools
// (bbtrace -spans, bbtrace -assemble) and the DESIGN.md schema enumerate it.
const (
	SpanConn      = "conn"      // whole connection life at the party that owns it
	SpanHandshake = "handshake" // hello exchange (endpoint or middlebox leg)
	SpanPrep      = "prep"      // obfuscated rule encryption (§3.3)
	SpanTokenize  = "tokenize"  // sender-side tokenization of one chunk
	SpanEncrypt   = "encrypt"   // sender-side DPIEnc encryption of one batch
	SpanScan      = "scan"      // middlebox detection of one token batch
	SpanForward   = "forward"   // one middlebox forwarding direction, whole life
)

// §3.3 setup sub-span names: children of the prep / handshake spans that
// break the obfuscated rule-encryption setup into its cost components, so
// the paper's setup table regenerates from traces (bbtrace -assemble).
const (
	SpanPrepGarble  = "prep.garble"   // endpoint: garbling one AES circuit
	SpanPrepOTBase  = "prep.ot_base"  // middlebox server leg: base-OT round (keys + msgA/msgB); empty when the kept base phase resumed
	SpanPrepOTExt   = "prep.ot_ext"   // middlebox server leg: IKNP extension + label unmask
	SpanPrepLabels  = "prep.labels"   // middlebox leg: garbled rows + endpoint labels (server), digests + label commitments (client)
	SpanPrepRuleEnc = "prep.rule_enc" // middlebox: verify + evaluate one rule circuit
)

// Event span names: zero-duration markers the flight recorder captures for
// key flow-lifecycle incidents, so a tail-flushed trace explains *why* the
// flow was interesting. They parent under the flow's connection context
// like ordinary spans; Err carries the detail (leg, rule SID, fault).
const (
	SpanEventTimeout  = "event.timeout"  // a step deadline expired (barrier, idle, write)
	SpanEventDegraded = "event.degraded" // fail-open degradation: flow forwards unscanned
	SpanEventAlert    = "event.alert"    // detection event dispatched
	SpanEventBlocked  = "event.blocked"  // block-action rule severed the flow
)

// Party values for Span.Party: which of the three BlindBox parties
// emitted the span.
const (
	PartyClient = "client"
	PartyServer = "server"
	PartyMB     = "mb"
)

// Span is one trace record. Flow identifies the connection locally at the
// emitting party (middlebox conn ID, or a transport-local sequence number
// on endpoints) — only TraceID joins parties. Dir is "c2s", "s2c" (data
// direction), "client"/"server" (which middlebox prep leg), or empty for
// connection-level spans. Shard is the detection shard for scan spans and
// nil for every other span — a pointer so shard 0 survives JSON
// round-trips.
type Span struct {
	// TraceID is the 32-hex-digit flow trace ID shared across parties
	// (empty when tracing context was not negotiated).
	TraceID string `json:"trace,omitempty"`
	// SpanID is this span's process-unique ID; Parent is the SpanID of
	// its parent (0 on the root span of a trace).
	SpanID uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	// Party names the emitting party: "client", "server" or "mb".
	Party string `json:"party,omitempty"`
	Flow  uint64 `json:"flow"`
	Dir   string `json:"dir,omitempty"`
	Name  string `json:"span"`
	Shard *int   `json:"shard,omitempty"`
	// Start is the span's wall-clock start in Unix nanoseconds.
	Start int64 `json:"start_unix_ns"`
	// Dur is the span duration in nanoseconds.
	Dur int64 `json:"dur_ns"`
	// Tokens and Bytes size the work the span covers, where applicable.
	Tokens int `json:"tokens,omitempty"`
	Bytes  int `json:"bytes,omitempty"`
	// Gates and Rows size garbled-circuit work (§3.3 sub-spans): AND
	// gates in the circuit and garbled-table rows produced/transferred.
	Gates int `json:"gates,omitempty"`
	Rows  int `json:"rows,omitempty"`
	// Err carries the error that ended the span, if any.
	Err string `json:"err,omitempty"`
	// Sampled labels how the span reached the sink when a flight recorder
	// mediated emission: "head" (deterministic head-sampling decision) or
	// "tail" (flushed because the flow ended in an interesting terminal
	// state). Empty for spans emitted directly to a sink.
	Sampled string `json:"sampled,omitempty"`
}

// ShardID returns a pointer to n for Span.Shard, so scan spans can record
// shard 0 explicitly instead of having omitempty drop it.
func ShardID(n int) *int { return &n }

// TraceID is the 128-bit distributed trace identifier negotiated in the
// BlindBox hello. The zero value means "no trace context".
type TraceID [16]byte

// NewTraceID draws a random, effectively unique trace ID.
func NewTraceID() TraceID {
	var t TraceID
	//lint:ignore unchecked-err crypto/rand.Read never fails on supported platforms; a zero ID only degrades tracing, not security
	rand.Read(t[:])
	return t
}

// IsZero reports whether t carries no trace context.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders t as 32 lowercase hex digits (the Span.TraceID wire form).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// ParseTraceID parses the 32-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, fmt.Errorf("obs: trace ID must be 32 hex digits, got %d", len(s))
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return t, fmt.Errorf("obs: bad trace ID: %w", err)
	}
	return t, nil
}

// spanIDCounter allocates process-unique span IDs: an atomic counter
// seeded from crypto/rand so IDs from distinct processes in one
// deployment do not collide in practice. Lives here because internal/obs
// is the one package allowed to hand-roll atomics (bblint obs-stats).
var spanIDCounter atomic.Uint64

func init() {
	var seed [8]byte
	//lint:ignore unchecked-err crypto/rand.Read never fails on supported platforms; a fixed seed only weakens cross-process span-ID uniqueness, not security
	rand.Read(seed[:])
	spanIDCounter.Store(binary.LittleEndian.Uint64(seed[:]))
}

// NewSpanID allocates a fresh nonzero span ID.
func NewSpanID() uint64 {
	for {
		if id := spanIDCounter.Add(1); id != 0 {
			return id
		}
	}
}

// SpanCtx is the propagation context of distributed tracing: the trace a
// span belongs to, the span's own ID, and its parent's ID. The zero value
// is "not tracing" and every method on it is a cheap no-op, preserving
// the nil-sink zero-cost contract.
type SpanCtx struct {
	Trace  TraceID
	Span   uint64
	Parent uint64
	// str caches Trace's hex rendering so Stamp on a hot path costs a
	// string-header copy instead of a per-span allocation. Contexts built
	// by NewSpanCtx/JoinSpanCtx carry it; Child propagates it; contexts
	// assembled field-by-field leave it empty and Stamp falls back to
	// rendering per span.
	str string
}

// NewSpanCtx starts a fresh trace and returns its root context
// (Parent 0). The Trace/Span pair is what the hello extension carries.
func NewSpanCtx() SpanCtx {
	t := NewTraceID()
	return SpanCtx{Trace: t, Span: NewSpanID(), str: t.String()}
}

// JoinSpanCtx adopts trace context received from a peer (the hello
// extension's trace ID + root span ID), pre-rendering the trace string so
// spans stamped under it stay allocation-free.
func JoinSpanCtx(t TraceID, span uint64) SpanCtx {
	return SpanCtx{Trace: t, Span: span, str: t.String()}
}

// Valid reports whether c carries trace context.
func (c SpanCtx) Valid() bool { return !c.Trace.IsZero() }

// TraceString returns the cached 32-hex rendering of c's trace ID,
// computing it when c was assembled without one. Zero context: "".
func (c SpanCtx) TraceString() string {
	if !c.Valid() {
		return ""
	}
	if c.str != "" {
		return c.str
	}
	return c.Trace.String()
}

// Child allocates a context for a new child span of c: same trace, fresh
// span ID, parent = c's span. Child of the zero context is the zero
// context, so untraced paths stay free.
func (c SpanCtx) Child() SpanCtx {
	if !c.Valid() {
		return SpanCtx{}
	}
	return SpanCtx{Trace: c.Trace, Span: NewSpanID(), Parent: c.Span, str: c.str}
}

// Stamp writes c's identity onto sp (trace, span and parent IDs). A zero
// context stamps nothing, leaving sp a v1 flat span.
func (c SpanCtx) Stamp(sp *Span) {
	if !c.Valid() {
		return
	}
	sp.TraceID = c.TraceString()
	sp.SpanID = c.Span
	sp.Parent = c.Parent
}

// Sink receives spans. Emit must be safe for concurrent use: the middlebox
// calls it from detection shards and forwarding goroutines alike. A slow
// sink back-pressures the pipeline; production sinks should buffer.
type Sink interface {
	Emit(Span)
}

// JSONLSink writes one JSON object per span per line, buffered. Close (or
// Flush) must be called to drain the buffer; after Close, further Emits
// are dropped, so shutdown paths can close the sink while stragglers are
// still emitting.
type JSONLSink struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	closed bool
}

// NewJSONLSink wraps w in a buffered JSONL span sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit implements Sink. Encoding errors are unrecoverable mid-stream and
// are dropped; the final Flush reports the writer's health.
func (s *JSONLSink) Emit(sp Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	//lint:ignore unchecked-err a failed span write must not kill traffic forwarding; Flush surfaces persistent writer errors
	s.enc.Encode(sp)
}

// Flush drains buffered spans to the underlying writer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bw.Flush()
}

// Close drains the buffer and marks the sink closed; concurrent or later
// Emits become no-ops. It does not close the underlying writer (the sink
// does not own the file). Close is idempotent.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.bw.Flush()
}

// traceFlushPeriod is how often OpenTraceFile drains its sink's buffer.
const traceFlushPeriod = time.Second

// OpenTraceFile opens path for append as a daemon's -trace span file: a
// JSONL sink that a background goroutine flushes every traceFlushPeriod,
// so the file tails usefully while the daemon runs. The returned flush
// drains what is left; call it on shutdown. Flush errors go to log. An
// empty path returns a nil sink and a flush that does nothing.
func OpenTraceFile(path string, log *slog.Logger) (Sink, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("opening trace file: %w", err)
	}
	sink := NewJSONLSink(f)
	flush := func() {
		if err := sink.Flush(); err != nil {
			log.Error("flushing trace file", "err", err)
		}
	}
	go func() {
		for range time.Tick(traceFlushPeriod) {
			flush()
		}
	}()
	return sink, flush, nil
}

// CollectSink retains every span in memory — the test and tooling sink.
type CollectSink struct {
	mu    sync.Mutex
	spans []Span
}

// Emit implements Sink.
func (s *CollectSink) Emit(sp Span) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

// Spans returns a copy of the collected spans in emission order.
func (s *CollectSink) Spans() []Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Span(nil), s.spans...)
}

// ReadSpans parses a JSONL span stream (as written by JSONLSink).
func ReadSpans(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	var out []Span
	for {
		var sp Span
		if err := dec.Decode(&sp); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = append(out, sp)
	}
}
