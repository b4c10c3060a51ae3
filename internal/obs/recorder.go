// The per-flow flight recorder and trace sampler: always-on, bounded-cost
// observability for millions of flows (DESIGN.md §8).
//
// Unconditional span emission does not survive production scale — the
// JSONL encoder becomes the hot path and the interesting 0.1% of flows
// drown in the boring 99.9%. The recorder inverts the cost model: every
// live flow records its spans and key lifecycle events into a fixed-size,
// pooled ring buffer (zero steady-state allocations), and spans only reach
// the real sink for flows that matter:
//
//   - head sampling: a deterministic hash of the 128-bit trace ID against
//     a configured rate picks flows up front; their spans stream to the
//     sink as they happen, labeled Sampled="head". The decision is a pure
//     function of (trace ID, rate), so every party that knows the trace ID
//     reaches the same verdict — and it additionally rides the hello
//     extension (transport.Hello.JoinTrace, first writer wins) so parties
//     agree even when their configured rates differ.
//   - tail retention: when a flow ends in an interesting terminal state
//     (alert fired, step timeout, fail-open degradation, block, conn
//     error) its full ring is flushed, labeled Sampled="tail",
//     regardless of the head decision. Otherwise the ring is dropped.
//
// The recorder counts its flows by disposition and its ring evictions
// (blindbox_obs_flows_total, blindbox_obs_ring_evictions_total) and
// exposes /debug/flows + /debug/flightrecorder (see admin.go).

package obs

import (
	"math"
	"sync"
	"time"
)

// Defaults for RecorderConfig's zero fields.
const (
	// DefaultRecorderEvents is the per-flow ring capacity in spans. At
	// roughly 200 B per Span the worst-case ring is ~50 KiB, pooled and
	// reused across flows, so resident cost scales with *live* flows only.
	DefaultRecorderEvents = 256
	// DefaultRecentFlows is the capacity of the recent-flow table served
	// on /debug/flows.
	DefaultRecentFlows = 64
)

// Disposition classifies how a flow's recorded spans left the recorder.
type Disposition string

// The flow dispositions. Live appears only in /debug/flows snapshots; the
// other three are terminal and counted in blindbox_obs_flows_total.
const (
	// DispositionLive marks a flow still recording.
	DispositionLive Disposition = "live"
	// DispositionHead marks a head-sampled flow: spans streamed to the
	// sink as they were recorded.
	DispositionHead Disposition = "head"
	// DispositionTail marks an unsampled flow flushed at end-of-flow
	// because it terminated in an interesting state.
	DispositionTail Disposition = "tail"
	// DispositionDrop marks an unsampled, uninteresting flow whose ring
	// was discarded.
	DispositionDrop Disposition = "drop"
)

// Sampler is the deterministic head-sampling decision: a pure function of
// the trace ID and the configured rate, so all parties of a flow agree
// without coordination. The zero value samples nothing.
type Sampler struct {
	threshold uint64
	all       bool
}

// NewSampler builds a sampler that admits approximately rate of trace IDs
// (clamped to [0, 1]; 0 admits none, 1 admits all).
func NewSampler(rate float64) Sampler {
	switch {
	case rate <= 0 || math.IsNaN(rate):
		return Sampler{}
	case rate >= 1:
		return Sampler{threshold: math.MaxUint64, all: true}
	}
	t := rate * 0x1p64
	if t >= 0x1p64 {
		return Sampler{threshold: math.MaxUint64, all: true}
	}
	return Sampler{threshold: uint64(t)}
}

// Sample reports the head decision for one trace ID.
func (s Sampler) Sample(t TraceID) bool {
	return s.all || sampleHash(t) < s.threshold
}

// sampleHash maps a trace ID to a uniform uint64: FNV-1a over the 16 ID
// bytes, then a splitmix64 finisher so the threshold comparison sees
// avalanche-quality high bits even for structured IDs.
func sampleHash(t TraceID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range t {
		h ^= uint64(b)
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// RecorderConfig configures a Recorder. The zero value is usable: default
// ring and table sizes, sampling rate 0 (tail-only retention), no sink, no
// self-metrics.
type RecorderConfig struct {
	// Events is the per-flow ring capacity in spans (default
	// DefaultRecorderEvents). A flow recording more than Events spans
	// evicts oldest-first; evictions are counted.
	Events int
	// Sample is the head-sampling rate in [0, 1].
	Sample float64
	// Recent is the recent-flow table capacity (default
	// DefaultRecentFlows).
	Recent int
	// Sink receives streamed (head) and flushed (tail) spans. Nil records
	// and classifies flows but delivers nothing — useful for /debug-only
	// deployments.
	Sink Sink
	// Metrics receives blindbox_obs_flows_total and
	// blindbox_obs_ring_evictions_total; nil disables them at the usual
	// nil-handle zero cost.
	Metrics *Registry
}

// Recorder manages the per-flow flight recorders of one process: a pool of
// span rings, the live-flow table, the recent-flow table, and the sampler.
// All methods are safe for concurrent use; a nil *Recorder is the
// documented disabled state (BeginFlowSampled returns a nil *FlowRecorder, whose
// methods are no-ops).
type Recorder struct {
	events  int
	sampler Sampler
	sink    Sink

	rings sync.Pool // *ringBuf

	mu      sync.Mutex
	live    map[uint64]*FlowRecorder
	recent  []FlowSummary // ring; recentN is the next write slot
	recentN int

	// Pre-resolved metric children so the per-flow paths never touch the
	// vec maps.
	flowsHead *Counter
	flowsTail *Counter
	flowsDrop *Counter
	evictions *Counter
}

// ringBuf is one pooled span ring. It is a named struct (not a bare slice)
// so sync.Pool round-trips a pointer without boxing a slice header.
type ringBuf struct {
	buf []Span
}

// NewRecorder builds a Recorder from cfg.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Events <= 0 {
		cfg.Events = DefaultRecorderEvents
	}
	if cfg.Recent <= 0 {
		cfg.Recent = DefaultRecentFlows
	}
	r := &Recorder{
		events:  cfg.Events,
		sampler: NewSampler(cfg.Sample),
		sink:    cfg.Sink,
		live:    make(map[uint64]*FlowRecorder),
		recent:  make([]FlowSummary, 0, cfg.Recent),
	}
	r.rings.New = func() any { return &ringBuf{buf: make([]Span, cfg.Events)} }
	if m := cfg.Metrics; m != nil {
		flows := m.CounterVec(ObsFlowsTotal, Help(ObsFlowsTotal), "disposition")
		r.flowsHead = flows.With(string(DispositionHead))
		r.flowsTail = flows.With(string(DispositionTail))
		r.flowsDrop = flows.With(string(DispositionDrop))
		r.evictions = m.Counter(ObsRingEvictionsTotal, Help(ObsRingEvictionsTotal))
	}
	return r
}

// Decide returns the head-sampling decision for a trace ID — the value a
// party roots into the hello sampling extension. False on a nil Recorder.
func (r *Recorder) Decide(t TraceID) bool {
	if r == nil {
		return false
	}
	return r.sampler.Sample(t)
}

// BeginFlowSampled starts recording one flow with an explicit head
// decision (adopted from the hello sampling extension, so all parties
// agree). Nil Recorder returns nil — every FlowRecorder method is
// nil-safe, so call sites need no guards.
func (r *Recorder) BeginFlowSampled(flow uint64, party string, ctx SpanCtx, head bool) *FlowRecorder {
	if r == nil {
		return nil
	}
	f := &FlowRecorder{
		rec:      r,
		flow:     flow,
		party:    party,
		ctx:      ctx,
		traceStr: ctx.TraceString(),
		head:     head,
		start:    time.Now(),
		ring:     r.rings.Get().(*ringBuf),
	}
	r.mu.Lock()
	r.live[flow] = f
	r.mu.Unlock()
	return f
}

// lookup returns the live flow recorder for flow, nil when unknown.
func (r *Recorder) lookup(flow uint64) *FlowRecorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live[flow]
}

// finish retires f from the live table and records its summary.
func (r *Recorder) finish(f *FlowRecorder, s FlowSummary) {
	r.mu.Lock()
	if r.live[f.flow] == f {
		delete(r.live, f.flow)
	}
	if len(r.recent) < cap(r.recent) {
		r.recent = append(r.recent, s)
	} else {
		r.recent[r.recentN] = s
	}
	r.recentN = (r.recentN + 1) % cap(r.recent)
	r.mu.Unlock()
	switch s.Disposition {
	case DispositionHead:
		r.flowsHead.Inc()
	case DispositionTail:
		r.flowsTail.Inc()
	default:
		r.flowsDrop.Inc()
	}
}

// Live snapshots the currently-recording flows, newest first.
func (r *Recorder) Live() []FlowSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	frs := make([]*FlowRecorder, 0, len(r.live))
	for _, f := range r.live {
		frs = append(frs, f)
	}
	r.mu.Unlock()
	out := make([]FlowSummary, 0, len(frs))
	for _, f := range frs {
		out = append(out, f.summary(DispositionLive, ""))
	}
	sortSummaries(out)
	return out
}

// liveFlows snapshots the live-flow table under the lock; per-flow ring
// copies happen outside it so a slow dump never stalls BeginFlowSampled/End.
func (r *Recorder) liveFlows() []*FlowRecorder {
	r.mu.Lock()
	frs := make([]*FlowRecorder, 0, len(r.live))
	for _, f := range r.live {
		frs = append(frs, f)
	}
	r.mu.Unlock()
	return frs
}

// LiveSpans copies the current ring contents of every live flow, trace IDs
// stamped — the /debug/spans pull feed. Ended flows have returned their
// rings to the pool and do not appear; pulling a trace therefore only
// works while its flows are live (head/tail delivery to a Sink covers the
// rest). Nil on a nil receiver.
func (r *Recorder) LiveSpans() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for _, f := range r.liveFlows() {
		out = append(out, f.Snapshot()...)
	}
	return out
}

// SpansForTrace copies the ring contents of every live flow recording
// under the 32-hex trace ID — the /debug/trace?id= pull feed, and what
// the fleet aggregator assembles across workers. Nil when no live flow
// matches (or on a nil receiver).
func (r *Recorder) SpansForTrace(trace string) []Span {
	if r == nil || trace == "" {
		return nil
	}
	var out []Span
	for _, f := range r.liveFlows() {
		if f.traceStr != trace {
			continue
		}
		out = append(out, f.Snapshot()...)
	}
	return out
}

// Recent snapshots the ended-flow table, newest first.
func (r *Recorder) Recent() []FlowSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]FlowSummary(nil), r.recent...)
	r.mu.Unlock()
	sortSummaries(out)
	return out
}

// sortSummaries orders newest-start first, flow ID as tie-break.
func sortSummaries(s []FlowSummary) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && later(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// later reports whether a started after b (flow ID breaking ties).
func later(a, b FlowSummary) bool {
	if a.StartUnixNs != b.StartUnixNs {
		return a.StartUnixNs > b.StartUnixNs
	}
	return a.Flow > b.Flow
}

// FlowSummary is one row of the /debug/flows table.
type FlowSummary struct {
	// Flow is the party-local flow/connection ID.
	Flow uint64 `json:"flow"`
	// Trace is the 32-hex trace ID ("" when tracing was not negotiated).
	Trace string `json:"trace,omitempty"`
	// Party is the recording party ("client", "server", "mb").
	Party string `json:"party,omitempty"`
	// HeadSampled is the deterministic head-sampling decision.
	HeadSampled bool `json:"head_sampled"`
	// Disposition is "live" while recording, else the terminal
	// head/tail/drop classification.
	Disposition Disposition `json:"disposition"`
	// Reason explains an interesting flow (first terminal hint: alert,
	// timeout, degradation, fault, error).
	Reason string `json:"reason,omitempty"`
	// StartUnixNs is the flow's recording start time.
	StartUnixNs int64 `json:"start_unix_ns"`
	// DurNs is the recording duration (so-far for live flows).
	DurNs int64 `json:"dur_ns"`
	// Spans counts spans recorded over the flow's lifetime; Evicted counts
	// those overwritten by ring wraparound.
	Spans   uint64 `json:"spans"`
	Evicted uint64 `json:"evicted,omitempty"`
}

// FlowRecorder is one flow's flight recorder: a Sink whose Emit appends to
// the pooled ring (and streams to the real sink when the flow is
// head-sampled). All methods are safe for concurrent use and on a nil
// receiver; Emits after End are dropped as stragglers. A StreamFlow has no
// ring and passes every span straight to its sink.
type FlowRecorder struct {
	rec      *Recorder
	stream   Sink // a StreamFlow's sink; nil for a Recorder's flow
	flow     uint64
	party    string
	ctx      SpanCtx
	traceStr string
	head     bool
	start    time.Time

	mu          sync.Mutex
	ring        *ringBuf
	n           int    // valid spans in ring (<= len(ring.buf))
	next        int    // next write slot
	total       uint64 // spans recorded over the flow lifetime
	evicted     uint64
	interesting bool
	reason      string
	closed      bool
	done        Disposition
}

// Context returns the flow's span context (zero on nil).
func (f *FlowRecorder) Context() SpanCtx {
	if f == nil {
		return SpanCtx{}
	}
	return f.ctx
}

// StreamFlow returns the flow recorder of a party that has a sink and no
// Recorder: it has no ring, every span goes straight to sink unlabeled and
// unchanged, End drops nothing and Event records nothing. A nil sink
// returns nil, the untraced flow.
func StreamFlow(sink Sink, flow uint64, party string, ctx SpanCtx) *FlowRecorder {
	if sink == nil {
		return nil
	}
	return &FlowRecorder{stream: sink, flow: flow, party: party, ctx: ctx}
}

// Span records one finished span of this flow: it fills in the flow ID,
// the party, and the start and duration from start to now, stamps ctx — the
// span's own context, parent.Child() for a leaf — and records the span.
// It does nothing on a nil receiver.
//
//bb:hotpath
func (f *FlowRecorder) Span(ctx SpanCtx, start time.Time, sp Span) {
	if f == nil {
		return
	}
	sp.Flow, sp.Party = f.flow, f.party
	sp.Start, sp.Dur = start.UnixNano(), int64(time.Since(start))
	ctx.Stamp(&sp)
	f.Emit(sp)
}

// Emit implements Sink: it records sp into the flow's ring and, when the
// flow is head-sampled, streams it to the real sink immediately. A span
// carrying an error marks the flow interesting (tail retention).
//
//bb:hotpath
func (f *FlowRecorder) Emit(sp Span) {
	if f == nil {
		return
	}
	if f.stream != nil {
		f.stream.Emit(sp)
		return
	}
	f.record(sp, sp.Err != "", sp.Err)
}

// Event records a key lifecycle incident (timeout, degradation, fault,
// alert, block — the SpanEvent* names) as a zero-duration span parented
// under the flow's connection context. Every event marks the flow
// interesting, so its ring tail-flushes.
func (f *FlowRecorder) Event(name, dir, detail string) {
	if f == nil || f.stream != nil {
		return
	}
	sp := Span{
		Flow: f.flow, Party: f.party, Dir: dir, Name: name,
		Start: time.Now().UnixNano(), Err: detail,
	}
	if f.ctx.Valid() {
		sp.SpanID = NewSpanID()
		sp.Parent = f.ctx.Span
	}
	f.record(sp, true, name)
}

// record is the shared append path of Emit and Event. It must stay free of
// per-span heap allocations: the ring slot assignment is a struct copy,
// the trace stamp is a cached string header, and the streamed copy goes to
// the sink by value.
//
//bb:hotpath
func (f *FlowRecorder) record(sp Span, interesting bool, reason string) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	if interesting && !f.interesting {
		f.interesting = true
		f.reason = reason
	}
	buf := f.ring.buf
	if f.n == len(buf) {
		f.evicted++
		f.rec.evictions.Inc()
	} else {
		f.n++
	}
	buf[f.next] = sp
	f.next++
	if f.next == len(buf) {
		f.next = 0
	}
	f.total++
	stream := f.head && f.rec.sink != nil
	f.mu.Unlock()
	if stream {
		if sp.TraceID == "" {
			sp.TraceID = f.traceStr
		}
		sp.Sampled = string(DispositionHead)
		f.rec.sink.Emit(sp)
	}
}

// Snapshot copies the flow's current ring contents in record order, trace
// IDs stamped — the /debug/flightrecorder dump. Nil on a nil receiver.
func (f *FlowRecorder) Snapshot() []Span {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ring == nil {
		return nil
	}
	out := make([]Span, 0, f.n)
	buf := f.ring.buf
	first := (f.next - f.n + len(buf)) % len(buf)
	for i := 0; i < f.n; i++ {
		sp := buf[(first+i)%len(buf)]
		if sp.TraceID == "" {
			sp.TraceID = f.traceStr
		}
		out = append(out, sp)
	}
	return out
}

// End closes the flow and settles its disposition: head-sampled flows have
// already streamed (the ring is discarded), interesting flows — a
// non-empty errMsg counts — tail-flush their ring to the sink, and the
// rest drop. The ring returns to the pool either way; stragglers emitting
// after End are dropped. End is idempotent and returns the disposition.
// On a StreamFlow, which has already streamed everything, it does nothing.
func (f *FlowRecorder) End(errMsg string) Disposition {
	if f == nil {
		return DispositionDrop
	}
	if f.stream != nil {
		return DispositionHead
	}
	f.mu.Lock()
	if f.closed {
		d := f.done
		f.mu.Unlock()
		return d
	}
	f.closed = true
	if errMsg != "" && !f.interesting {
		f.interesting = true
		f.reason = errMsg
	}
	var d Disposition
	switch {
	case f.head:
		d = DispositionHead
	case f.interesting:
		d = DispositionTail
	default:
		d = DispositionDrop
	}
	f.done = d
	ring, n, next := f.ring, f.n, f.next
	f.ring = nil
	f.mu.Unlock()

	flush := d == DispositionTail && f.rec.sink != nil
	buf := ring.buf
	first := (next - n + len(buf)) % len(buf)
	for i := 0; i < n; i++ {
		slot := &buf[(first+i)%len(buf)]
		if flush {
			sp := *slot
			if sp.TraceID == "" {
				sp.TraceID = f.traceStr
			}
			sp.Sampled = string(DispositionTail)
			f.rec.sink.Emit(sp)
		}
		*slot = Span{} // release retained strings before pooling
	}
	f.rec.rings.Put(ring)
	f.rec.finish(f, f.summary(d, errMsg))
	return d
}

// summary builds the flow's /debug table row.
func (f *FlowRecorder) summary(d Disposition, errMsg string) FlowSummary {
	f.mu.Lock()
	defer f.mu.Unlock()
	reason := f.reason
	if reason == "" {
		reason = errMsg
	}
	return FlowSummary{
		Flow:        f.flow,
		Trace:       f.traceStr,
		Party:       f.party,
		HeadSampled: f.head,
		Disposition: d,
		Reason:      reason,
		StartUnixNs: f.start.UnixNano(),
		DurNs:       int64(time.Since(f.start)),
		Spans:       f.total,
		Evicted:     f.evicted,
	}
}
