package obs

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// spanEqual compares spans by value, following the Shard pointer (plain
// == would compare pointer identity, which JSON round trips never keep).
func spanEqual(a, b Span) bool {
	as, bs := a.Shard, b.Shard
	a.Shard, b.Shard = nil, nil
	if a != b {
		return false
	}
	if (as == nil) != (bs == nil) {
		return false
	}
	return as == nil || *as == *bs
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	ctx := NewSpanCtx()
	child := ctx.Child()
	in := []Span{
		{Flow: 1, Dir: "c2s", Name: SpanScan, Shard: ShardID(2), Start: 100, Dur: 50, Tokens: 8},
		{Flow: 1, Name: SpanHandshake, Start: 10, Dur: 90},
		{Flow: 2, Dir: "s2c", Name: SpanForward, Start: 200, Dur: 1000, Bytes: 4096, Err: "reset"},
		{Flow: 3, Party: PartyClient, Name: SpanPrepGarble, Start: 5, Dur: 6, Gates: 6400, Rows: 12800, Bytes: 1 << 18},
	}
	child.Stamp(&in[3])
	for _, sp := range in {
		sink.Emit(sp)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != len(in) {
		t.Fatalf("JSONL lines = %d, want %d", n, len(in))
	}
	out, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("ReadSpans returned %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		if !spanEqual(out[i], in[i]) {
			t.Errorf("span %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
	if out[3].TraceID != ctx.Trace.String() || out[3].Parent != ctx.Span || out[3].SpanID != child.Span {
		t.Errorf("trace identity lost in round trip: %+v", out[3])
	}
}

func TestJSONLSinkOmitsEmptyFields(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Emit(Span{Flow: 3, Name: SpanTokenize, Start: 1, Dur: 2})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	for _, absent := range []string{`"dir"`, `"shard"`, `"tokens"`, `"bytes"`, `"err"`, `"trace"`, `"id"`, `"parent"`, `"party"`, `"gates"`, `"rows"`} {
		if strings.Contains(line, absent) {
			t.Errorf("zero-valued field %s serialized: %s", absent, line)
		}
	}
}

// TestShardZeroSurvivesJSON is the regression test for the v1 schema bug:
// `json:"shard,omitempty"` dropped shard 0, making scans on shard 0
// indistinguishable from connection-level spans.
func TestShardZeroSurvivesJSON(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Emit(Span{Flow: 1, Name: SpanScan, Shard: ShardID(0), Start: 1, Dur: 2})
	sink.Emit(Span{Flow: 1, Name: SpanScan, Shard: ShardID(-1), Start: 3, Dur: 4})
	sink.Emit(Span{Flow: 1, Name: SpanHandshake, Start: 5, Dur: 6})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.Contains(lines[0], `"shard":0`) {
		t.Errorf("shard 0 dropped from scan span: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"shard":-1`) {
		t.Errorf("inline-scan shard -1 dropped: %s", lines[1])
	}
	out, err := ReadSpans(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Shard == nil || *out[0].Shard != 0 {
		t.Errorf("parsed shard = %v, want 0", out[0].Shard)
	}
	if out[2].Shard != nil {
		t.Errorf("connection-level span grew a shard: %v", *out[2].Shard)
	}
}

func TestSpanCtx(t *testing.T) {
	root := NewSpanCtx()
	if !root.Valid() || root.Parent != 0 || root.Span == 0 {
		t.Fatalf("bad root ctx: %+v", root)
	}
	child := root.Child()
	if child.Trace != root.Trace || child.Parent != root.Span || child.Span == root.Span || child.Span == 0 {
		t.Fatalf("bad child ctx: root %+v child %+v", root, child)
	}
	var sp Span
	child.Stamp(&sp)
	if sp.TraceID != root.Trace.String() || sp.SpanID != child.Span || sp.Parent != root.Span {
		t.Fatalf("bad stamp: %+v", sp)
	}
	parsed, err := ParseTraceID(sp.TraceID)
	if err != nil || parsed != root.Trace {
		t.Fatalf("ParseTraceID(%q) = %v, %v", sp.TraceID, parsed, err)
	}
	if _, err := ParseTraceID("zz"); err == nil {
		t.Fatal("ParseTraceID accepted a short non-hex string")
	}

	var zero SpanCtx
	if zero.Valid() || zero.Child().Valid() {
		t.Fatal("zero ctx claims validity")
	}
	var untouched Span
	zero.Stamp(&untouched)
	if untouched.TraceID != "" || untouched.SpanID != 0 {
		t.Fatalf("zero ctx stamped a span: %+v", untouched)
	}
}

func TestNewSpanIDUnique(t *testing.T) {
	seen := make(map[uint64]bool, 1000)
	for i := 0; i < 1000; i++ {
		id := NewSpanID()
		if id == 0 || seen[id] {
			t.Fatalf("span ID %d repeated or zero at iteration %d", id, i)
		}
		seen[id] = true
	}
}

// TestJSONLSinkEmitFlushCloseRace interleaves Emit, Flush and Close from
// many goroutines — the -race contract of the sink, mirroring a shutdown
// where detection shards still emit while the signal handler closes.
func TestJSONLSinkEmitFlushCloseRace(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex // buf itself is not concurrency-safe
	sink := NewJSONLSink(lockedWriter{&mu, &buf})

	const writers, spans = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				sink.Emit(Span{Flow: uint64(w), Name: SpanScan, Shard: ShardID(w), Start: int64(i), Dur: 1})
				if i%50 == 0 {
					//lint:ignore unchecked-err concurrent Flush during the race test only exercises locking
					sink.Flush()
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		//lint:ignore unchecked-err concurrent Close during the race test only exercises locking
		sink.Close()
	}()
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatalf("idempotent Close: %v", err)
	}
	// Post-close emits are dropped, not written.
	before := buf.Len()
	sink.Emit(Span{Flow: 99, Name: SpanScan, Start: 1, Dur: 1})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != before {
		t.Fatal("Emit after Close wrote data")
	}
	// Whatever made it out must be whole JSONL lines.
	if _, err := ReadSpans(&buf); err != nil {
		t.Fatalf("post-race stream corrupt: %v", err)
	}
}

// lockedWriter serializes writes so the test's bytes.Buffer is safe under
// the sink's internal concurrency.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

// Write implements io.Writer under the shared lock.
func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestCollectSinkConcurrent(t *testing.T) {
	var sink CollectSink
	const writers, spans = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				sink.Emit(Span{Flow: uint64(w), Name: SpanScan, Start: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	got := sink.Spans()
	if len(got) != writers*spans {
		t.Fatalf("collected %d spans, want %d", len(got), writers*spans)
	}
	// Per-flow emission order must be preserved (spans from one goroutine
	// keep their relative order).
	last := make(map[uint64]int64)
	for _, sp := range got {
		if prev, ok := last[sp.Flow]; ok && sp.Start < prev {
			t.Fatalf("flow %d span order regressed: %d after %d", sp.Flow, sp.Start, prev)
		}
		last[sp.Flow] = sp.Start
	}
}

// TestOpenTraceFile: the daemons' span file appends to what is there, and
// flush makes every emitted span readable; no path means no sink.
func TestOpenTraceFile(t *testing.T) {
	if sink, flush, err := OpenTraceFile("", nil); sink != nil || err != nil {
		t.Fatalf("empty path: sink %v, err %v", sink, err)
	} else {
		flush()
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := os.WriteFile(path, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sink, flush, err := OpenTraceFile(path, slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	sink.Emit(Span{Flow: 3, Name: SpanScan})
	flush()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(got)), "\n")
	if len(lines) != 2 || lines[0] != "{}" || !strings.Contains(lines[1], `"span":"scan"`) {
		t.Fatalf("trace file holds %q", got)
	}
}
