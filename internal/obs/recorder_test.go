package obs

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func testTraceID(n uint64) TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[8:], n)
	return t
}

func TestSamplerRateBounds(t *testing.T) {
	none := NewSampler(0)
	all := NewSampler(1)
	half := NewSampler(0.5)
	admitted := 0
	const ids = 4096
	for i := uint64(0); i < ids; i++ {
		id := testTraceID(i)
		if none.Sample(id) {
			t.Fatalf("rate 0 admitted %v", id)
		}
		if !all.Sample(id) {
			t.Fatalf("rate 1 rejected %v", id)
		}
		if half.Sample(id) != half.Sample(id) {
			t.Fatalf("nondeterministic decision for %v", id)
		}
		if half.Sample(id) {
			admitted++
		}
	}
	// The hash is avalanche-quality, so 0.5 should land well inside
	// [0.4, 0.6] over 4096 structured IDs.
	if frac := float64(admitted) / ids; frac < 0.4 || frac > 0.6 {
		t.Errorf("rate 0.5 admitted %.3f of IDs", frac)
	}
	// Degenerate rates behave like the nearest bound.
	if NewSampler(math.NaN()).Sample(testTraceID(1)) {
		t.Error("NaN rate admitted")
	}
	if !NewSampler(2).Sample(testTraceID(1)) {
		t.Error("rate 2 rejected")
	}
}

// FuzzSamplerDecision checks the invariants every party relies on: the
// decision is a pure function of (ID, rate), rate 0 admits nothing, rate 1
// admits everything, and raising the rate never turns an admitted ID away
// (monotonicity — the property that makes mixed-rate fleets safe).
func FuzzSamplerDecision(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), 0.5, 0.9)
	f.Add([]byte(""), 0.0, 1.0)
	f.Add([]byte{0xff}, 0.01, 0.011)
	f.Fuzz(func(t *testing.T, raw []byte, r1, r2 float64) {
		var id TraceID
		copy(id[:], raw)
		if NewSampler(0).Sample(id) {
			t.Fatal("rate 0 admitted")
		}
		if !NewSampler(1).Sample(id) {
			t.Fatal("rate 1 rejected")
		}
		s1 := NewSampler(r1)
		if s1.Sample(id) != s1.Sample(id) {
			t.Fatal("nondeterministic")
		}
		if r1 <= r2 && s1.Sample(id) && !NewSampler(r2).Sample(id) {
			t.Fatalf("monotonicity violated: admitted at %v, rejected at %v", r1, r2)
		}
	})
}

func TestRecorderTailFlushOnInterestingEnd(t *testing.T) {
	sink := &CollectSink{}
	reg := NewRegistry()
	rec := NewRecorder(RecorderConfig{Sample: 0, Sink: sink, Metrics: reg})
	ctx := NewSpanCtx()
	fr := rec.BeginFlowSampled(7, PartyMB, ctx, rec.Decide(ctx.Trace))
	sp := Span{Flow: 7, Party: PartyMB, Name: SpanScan, Tokens: 8}
	ctx.Child().Stamp(&sp)
	fr.Emit(sp)
	if got := sink.Spans(); len(got) != 0 {
		t.Fatalf("unsampled flow streamed %d span(s) before end", len(got))
	}
	fr.Event(SpanEventAlert, "c2s", "sid 42")
	if d := fr.End(""); d != DispositionTail {
		t.Fatalf("disposition = %v, want tail", d)
	}
	got := sink.Spans()
	if len(got) != 2 {
		t.Fatalf("flushed %d span(s), want 2", len(got))
	}
	for _, sp := range got {
		if sp.Sampled != string(DispositionTail) {
			t.Errorf("span %s labeled %q, want tail", sp.Name, sp.Sampled)
		}
		if sp.TraceID != ctx.TraceString() {
			t.Errorf("span %s trace %q, want %q", sp.Name, sp.TraceID, ctx.TraceString())
		}
	}
	if got[1].Name != SpanEventAlert || got[1].Err != "sid 42" {
		t.Errorf("event span = %+v", got[1])
	}
	if v := reg.CounterVec(ObsFlowsTotal, "", "disposition").With(string(DispositionTail)).Value(); v != 1 {
		t.Errorf("tail flows counter = %d, want 1", v)
	}
}

func TestRecorderHeadStreamsWithoutDuplicateFlush(t *testing.T) {
	sink := &CollectSink{}
	rec := NewRecorder(RecorderConfig{Sample: 1, Sink: sink})
	ctx := NewSpanCtx()
	fr := rec.BeginFlowSampled(1, PartyClient, ctx, rec.Decide(ctx.Trace))
	for i := 0; i < 3; i++ {
		sp := Span{Flow: 1, Party: PartyClient, Name: SpanEncrypt}
		ctx.Child().Stamp(&sp)
		fr.Emit(sp)
	}
	if got := sink.Spans(); len(got) != 3 {
		t.Fatalf("streamed %d span(s), want 3", len(got))
	}
	// Even an interesting end must not re-flush what already streamed.
	fr.Event(SpanEventAlert, "c2s", "sid 1")
	if d := fr.End("boom"); d != DispositionHead {
		t.Fatalf("disposition = %v, want head", d)
	}
	got := sink.Spans()
	if len(got) != 4 {
		t.Fatalf("sink has %d span(s) after end, want 4 (no duplicate flush)", len(got))
	}
	for _, sp := range got {
		if sp.Sampled != string(DispositionHead) {
			t.Errorf("span %s labeled %q, want head", sp.Name, sp.Sampled)
		}
	}
}

func TestRecorderDropsBoringFlows(t *testing.T) {
	sink := &CollectSink{}
	reg := NewRegistry()
	rec := NewRecorder(RecorderConfig{Sample: 0, Sink: sink, Metrics: reg})
	ctx := NewSpanCtx()
	fr := rec.BeginFlowSampled(2, PartyServer, ctx, rec.Decide(ctx.Trace))
	fr.Emit(Span{Flow: 2, Name: SpanTokenize})
	if d := fr.End(""); d != DispositionDrop {
		t.Fatalf("disposition = %v, want drop", d)
	}
	if got := sink.Spans(); len(got) != 0 {
		t.Fatalf("dropped flow reached the sink with %d span(s)", len(got))
	}
	if v := reg.CounterVec(ObsFlowsTotal, "", "disposition").With(string(DispositionDrop)).Value(); v != 1 {
		t.Errorf("drop flows counter = %d, want 1", v)
	}
}

func TestRecorderErrorEndAndSpanErrAreInteresting(t *testing.T) {
	for name, drive := range map[string]func(fr *FlowRecorder) Disposition{
		"end error": func(fr *FlowRecorder) Disposition { return fr.End("conn reset") },
		"span error": func(fr *FlowRecorder) Disposition {
			fr.Emit(Span{Name: SpanForward, Err: "broken pipe"})
			return fr.End("")
		},
		"any event":   func(fr *FlowRecorder) Disposition { fr.Event("event.other", "client", "detail"); return fr.End("") },
		"timeout":     func(fr *FlowRecorder) Disposition { fr.Event(SpanEventTimeout, "c2s", "barrier"); return fr.End("") },
		"degradation": func(fr *FlowRecorder) Disposition { fr.Event(SpanEventDegraded, "c2s", "fail-open"); return fr.End("") },
		"block":       func(fr *FlowRecorder) Disposition { fr.Event(SpanEventBlocked, "c2s", "sid 9"); return fr.End("") },
	} {
		rec := NewRecorder(RecorderConfig{Sample: 0, Sink: &CollectSink{}})
		ctx := NewSpanCtx()
		fr := rec.BeginFlowSampled(3, PartyMB, ctx, rec.Decide(ctx.Trace))
		if d := drive(fr); d != DispositionTail {
			t.Errorf("%s: disposition = %v, want tail", name, d)
		}
	}
}

func TestRecorderRingEviction(t *testing.T) {
	reg := NewRegistry()
	sink := &CollectSink{}
	rec := NewRecorder(RecorderConfig{Events: 4, Sample: 0, Sink: sink, Metrics: reg})
	ctx := NewSpanCtx()
	fr := rec.BeginFlowSampled(5, PartyMB, ctx, rec.Decide(ctx.Trace))
	for i := 0; i < 10; i++ {
		fr.Emit(Span{Flow: 5, Name: SpanScan, Tokens: i})
	}
	snap := fr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d span(s), want ring capacity 4", len(snap))
	}
	// Oldest-first eviction keeps the newest four, in record order.
	for i, sp := range snap {
		if sp.Tokens != 6+i {
			t.Errorf("snapshot[%d].Tokens = %d, want %d", i, sp.Tokens, 6+i)
		}
	}
	if v := reg.Counter(ObsRingEvictionsTotal, "").Value(); v != 6 {
		t.Errorf("evictions = %d, want 6", v)
	}
	fr.End("test")
	if got := sink.Spans(); len(got) != 4 {
		t.Errorf("tail flush emitted %d span(s), want the surviving 4", len(got))
	}
}

func TestRecorderEndIdempotentAndStragglersDropped(t *testing.T) {
	sink := &CollectSink{}
	rec := NewRecorder(RecorderConfig{Sample: 0, Sink: sink})
	ctx := NewSpanCtx()
	fr := rec.BeginFlowSampled(6, PartyMB, ctx, rec.Decide(ctx.Trace))
	fr.Event(SpanEventAlert, "c2s", "sid 1")
	if d := fr.End(""); d != DispositionTail {
		t.Fatalf("first End = %v", d)
	}
	n := len(sink.Spans())
	if d := fr.End("late error"); d != DispositionTail {
		t.Errorf("second End = %v, want the settled tail", d)
	}
	fr.Emit(Span{Name: SpanScan})
	if got := len(sink.Spans()); got != n {
		t.Errorf("sink grew from %d to %d after End", n, got)
	}
	// The flow moved from live to recent exactly once.
	if live := rec.Live(); len(live) != 0 {
		t.Errorf("live table still has %d flow(s)", len(live))
	}
	recents := rec.Recent()
	if len(recents) != 1 || recents[0].Disposition != DispositionTail || recents[0].Reason != SpanEventAlert {
		t.Errorf("recent = %+v", recents)
	}
}

func TestRecorderNilSafety(t *testing.T) {
	var rec *Recorder
	if rec.Decide(testTraceID(1)) {
		t.Error("nil recorder sampled")
	}
	fr := rec.BeginFlowSampled(1, PartyMB, NewSpanCtx(), true)
	if fr != nil {
		t.Fatal("nil recorder returned a flow recorder")
	}
	// Every method must be a no-op on the nil flow recorder.
	fr.Emit(Span{Name: SpanScan})
	fr.Event(SpanEventAlert, "c2s", "sid 1")
	if got := fr.Snapshot(); got != nil {
		t.Errorf("nil Snapshot = %v", got)
	}
	if d := fr.End("err"); d != DispositionDrop {
		t.Errorf("nil End = %v", d)
	}
	if rec.Live() != nil || rec.Recent() != nil {
		t.Error("nil recorder has flow tables")
	}
}

// TestRecorderConcurrentRecordFlushEvict drives many flows from many
// goroutines — concurrent Emit on shared flow recorders, Snapshot dumps,
// alert events, and racing End calls — and is meaningful under -race.
func TestRecorderConcurrentRecordFlushEvict(t *testing.T) {
	sink := &CollectSink{}
	rec := NewRecorder(RecorderConfig{Events: 8, Sample: 0.5, Sink: sink, Metrics: NewRegistry()})
	const flows, writers, spans = 16, 4, 64
	var wg sync.WaitGroup
	for f := 0; f < flows; f++ {
		ctx := NewSpanCtx()
		fr := rec.BeginFlowSampled(uint64(f+1), PartyMB, ctx, rec.Decide(ctx.Trace))
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < spans; i++ {
					fr.Emit(Span{Flow: fr.flow, Name: SpanScan, Tokens: i})
					if i%16 == 0 {
						fr.Snapshot()
					}
				}
				if w == 0 {
					fr.Event(SpanEventAlert, "c2s", "sid 1")
				}
			}(w)
		}
		wg.Add(2)
		go func() { defer wg.Done(); fr.End("") }()
		go func() { defer wg.Done(); fr.End("racing") }()
	}
	wg.Wait()
	if live := rec.Live(); len(live) != 0 {
		t.Errorf("%d flow(s) still live", len(live))
	}
	for _, sp := range sink.Spans() {
		if sp.Sampled != string(DispositionHead) && sp.Sampled != string(DispositionTail) {
			t.Fatalf("sink span labeled %q", sp.Sampled)
		}
	}
}

// TestRecordPathZeroAllocs pins the dynamic half of the //bb:hotpath
// contract: at steady state (ring warmed past one wraparound) recording a
// span allocates nothing, whether emitted whole or through
// FlowRecorder.Span, and neither does a StreamFlow's Emit. Skipped under
// -race, whose instrumentation allocates on its own account.
func TestRecordPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rec := NewRecorder(RecorderConfig{Events: 32, Metrics: NewRegistry()})
	ctx := NewSpanCtx()
	fr := rec.BeginFlowSampled(9, PartyMB, ctx, false)
	sp := Span{Flow: 9, Party: PartyMB, Name: SpanScan, Dir: "c2s", Tokens: 512}
	ctx.Child().Stamp(&sp)
	for i := 0; i < 64; i++ {
		fr.Emit(sp)
	}
	if avg := testing.AllocsPerRun(1000, func() { fr.Emit(sp) }); avg != 0 {
		t.Errorf("record path allocates %.2f per span, want 0", avg)
	}
	start := time.Now()
	leaf := Span{Dir: "c2s", Name: SpanScan, Shard: ShardID(0), Tokens: 512}
	if avg := testing.AllocsPerRun(1000, func() { fr.Span(ctx.Child(), start, leaf) }); avg != 0 {
		t.Errorf("FlowRecorder.Span allocates %.2f per span, want 0", avg)
	}
	fr.End("")
	var n countSink
	stream := StreamFlow(&n, 9, PartyMB, ctx)
	if avg := testing.AllocsPerRun(1000, func() { stream.Emit(sp) }); avg != 0 {
		t.Errorf("StreamFlow Emit allocates %.2f per span, want 0", avg)
	}
}

// TestStreamFlowPassesSpansThrough: a StreamFlow hands every span to its
// sink unchanged and unlabeled, records no events, keeps streaming after
// End, and a nil sink is the untraced (nil) flow.
func TestStreamFlowPassesSpansThrough(t *testing.T) {
	if fr := StreamFlow(nil, 1, PartyClient, NewSpanCtx()); fr != nil {
		t.Fatal("StreamFlow with a nil sink is not nil")
	}
	sink := &CollectSink{}
	ctx := NewSpanCtx()
	fr := StreamFlow(sink, 4, PartyServer, ctx)
	start := time.Now()
	fr.Span(ctx, start, Span{Name: SpanConn, Err: "boom"})
	fr.Event(SpanEventAlert, "c2s", "sid 1")
	fr.End("boom")
	fr.Emit(Span{Flow: 4, Name: SpanTokenize})
	got := sink.Spans()
	if len(got) != 2 || got[0].Name != SpanConn || got[1].Name != SpanTokenize {
		t.Fatalf("sink got %+v, want the conn span then the late tokenize span", got)
	}
	want := Span{TraceID: ctx.TraceString(), SpanID: ctx.Span, Party: PartyServer, Flow: 4,
		Name: SpanConn, Start: start.UnixNano(), Dur: got[0].Dur, Err: "boom"}
	if got[0] != want {
		t.Errorf("conn span = %+v, want %+v", got[0], want)
	}
	if got[1].TraceID != "" || got[1].Sampled != "" {
		t.Errorf("emitted span was restamped: %+v", got[1])
	}
}

// countSink counts the spans it receives and keeps none.
type countSink struct{ n int }

func (s *countSink) Emit(Span) { s.n++ }

func TestRecorderDebugEndpoints(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(RecorderConfig{Sample: 0, Metrics: reg})
	ctx := NewSpanCtx()
	live := rec.BeginFlowSampled(11, PartyMB, ctx, rec.Decide(ctx.Trace))
	sp := Span{Flow: 11, Party: PartyMB, Name: SpanScan, Tokens: 3}
	ctx.Child().Stamp(&sp)
	live.Emit(sp)
	endedCtx := NewSpanCtx()
	ended := rec.BeginFlowSampled(12, PartyMB, endedCtx, rec.Decide(endedCtx.Trace))
	ended.Event(SpanEventAlert, "c2s", "sid 5")
	ended.End("")

	mux := AdminMux(reg)
	rec.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/debug/flows")
	if code != http.StatusOK {
		t.Fatalf("/debug/flows: code %d body %q", code, body)
	}
	var tables struct {
		Live   []FlowSummary `json:"live"`
		Recent []FlowSummary `json:"recent"`
	}
	if err := json.Unmarshal([]byte(body), &tables); err != nil {
		t.Fatalf("/debug/flows JSON: %v", err)
	}
	if len(tables.Live) != 1 || tables.Live[0].Flow != 11 || tables.Live[0].Disposition != DispositionLive {
		t.Errorf("live table = %+v", tables.Live)
	}
	if len(tables.Recent) != 1 || tables.Recent[0].Flow != 12 || tables.Recent[0].Disposition != DispositionTail {
		t.Errorf("recent table = %+v", tables.Recent)
	}

	if code, _ := get("/debug/flightrecorder"); code != http.StatusBadRequest {
		t.Errorf("missing flow param: code %d, want 400", code)
	}
	if code, _ := get("/debug/flightrecorder?flow=xyz"); code != http.StatusBadRequest {
		t.Errorf("bad flow param: code %d, want 400", code)
	}
	if code, _ := get("/debug/flightrecorder?flow=12"); code != http.StatusNotFound {
		t.Errorf("ended flow: code %d, want 404", code)
	}
	code, body = get("/debug/flightrecorder?flow=11")
	if code != http.StatusOK {
		t.Fatalf("live flow dump: code %d body %q", code, body)
	}
	var dump struct {
		Summary FlowSummary `json:"summary"`
		Spans   []Span      `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("flight recorder JSON: %v", err)
	}
	if dump.Summary.Flow != 11 || len(dump.Spans) != 1 || dump.Spans[0].Name != SpanScan {
		t.Errorf("dump = %+v", dump)
	}
	if dump.Spans[0].TraceID != ctx.TraceString() {
		t.Errorf("dumped span trace %q, want %q", dump.Spans[0].TraceID, ctx.TraceString())
	}
	if !strings.Contains(body, `"head_sampled"`) {
		t.Errorf("dump missing head_sampled field: %s", body)
	}
	live.End("")
}
