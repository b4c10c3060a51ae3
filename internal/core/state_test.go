package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/corpus"
	"repro/internal/dpienc"
	"repro/internal/ruleprep"
	"repro/internal/rules"
	"repro/internal/tokenize"
)

const recordLen = 16 << 10

// liveHeap is HeapAlloc after a collection: what is reachable now. No
// clock is involved.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestFreshPipelineIsSmall pins what a connection that never sends text
// pays for its DPIEnc state — short flows hold four pipelines per
// connection — and that binary payload, which passes through the pipeline
// with no tokens, leaves it that small: the schedule cache and its 13 KiB of
// scratch come with the first token.
func TestFreshPipelineIsSmall(t *testing.T) {
	before := liveHeap()
	p := NewSenderPipeline(sessionKeys(), DefaultConfig())
	if bytes := liveHeap() - before; bytes > 16<<10 {
		t.Fatalf("a fresh SenderPipeline retains %d bytes, want at most 16 KiB", bytes)
	}
	// Allocated bytes, not live heap: 16 KiB is too little to read off a
	// heap that other tests' garbage is still leaving.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 64; i++ {
		if toks, _ := p.ProcessBinaryInto(nil, recordLen); len(toks) != 0 {
			t.Fatalf("binary payload produced %d tokens", len(toks))
		}
	}
	runtime.ReadMemStats(&m1)
	if bytes := m1.TotalAlloc - m0.TotalAlloc; bytes > 4<<10 {
		t.Fatalf("64 records of binary payload made a SenderPipeline allocate %d bytes, want at most 4 KiB", bytes)
	}
	runtime.KeepAlive(p)
}

// TestSenderStateIsBoundedByResetInterval drives 32 MiB of synthesized text
// through one pipeline, as a long upload does, and checks that what it
// retains is bounded and has stopped growing by MiB 16, under either
// tokenization. With state per distinct token kept forever, the delimiter
// pipeline retained 13 bytes per payload byte (≈ 400 MiB here).
// (dpienc's TestStateSizeSettles checks the table and cache sizes
// themselves.)
func TestSenderStateIsBoundedByResetInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("encrypts 2 x 32 MiB of text")
	}
	for _, c := range []struct {
		cfg   Config
		bound int64 // bytes retained after 32 MiB
	}{
		// 44 k distinct tokens a MiB: one interval in a table of 16-byte
		// slots at most ¾ full (1 MiB), one schedule cache (0.75 MiB), and
		// the record-sized buffers: 2.2 MiB measured.
		{DefaultConfig(), 4 << 20},
		// 231 k distinct tokens a MiB (an 8 MiB table) and 16 K tokens a
		// record: 9.5 MiB measured.
		{Config{Protocol: dpienc.ProtocolIII, Mode: tokenize.Window}, 14 << 20},
	} {
		before := liveHeap()
		p := NewSenderPipeline(sessionKeys(), c.cfg)
		var toks []dpienc.EncryptedToken
		var at16 int64
		for mib := 0; mib < 32; mib++ {
			if mib == 16 {
				at16 = liveHeap() - before
			}
			text := corpus.SynthesizeTextSeeded(int64(mib), 1<<20)
			for off := 0; off < len(text); off += recordLen {
				toks, _ = p.ProcessTextInto(toks, text[off:off+recordLen])
			}
		}
		at32 := liveHeap() - before
		runtime.KeepAlive(p)
		t.Logf("%s/%s: retained %d KiB after 16 MiB, %d KiB after 32 MiB", c.cfg.Mode, c.cfg.Protocol, at16>>10, at32>>10)
		if at32 > c.bound {
			t.Errorf("%s/%s: pipeline retains %d bytes after 32 MiB of text, want at most %d",
				c.cfg.Mode, c.cfg.Protocol, at32, c.bound)
		}
		if at32 > at16+at16/8 {
			t.Errorf("%s/%s: retained bytes still growing: %d after 16 MiB, %d after 32 MiB",
				c.cfg.Mode, c.cfg.Protocol, at16, at32)
		}
	}
}

// TestSteadyStateRecordsDoNotAllocate pins the buffer reuse of the token
// path: once tables, caches and buffers have reached their size, a 16 KiB
// record through the sender, and through the receiver's validator, costs
// nothing: no allocation per token, none per record, and after the first
// reset interval the counter table is never reallocated either.
func TestSteadyStateRecordsDoNotAllocate(t *testing.T) {
	k := sessionKeys().K
	if testing.AllocsPerRun(10, func() { new(bbcrypto.Schedule).Expand(&k) }) > 0 {
		t.Skip("this build keys AES through crypto/aes (purego or no assembly kernel), which allocates per schedule-cache miss")
	}
	text := corpus.SynthesizeTextSeeded(7, 6<<20)
	cfg := DefaultConfig()
	sender, v := NewSenderPipeline(sessionKeys(), cfg), NewValidator(sessionKeys(), cfg)
	var toks []dpienc.EncryptedToken
	off := 0
	record := func() []byte {
		r := text[off : off+recordLen]
		off += recordLen
		return r
	}
	for off < 4<<20 { // warm-up: four reset intervals
		r := record()
		toks, _ = sender.ProcessTextInto(toks, r)
		v.ReceiveTokens(toks)
		if err := v.ValidateText(r); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		toks, _ = sender.ProcessTextInto(toks, record())
	}); allocs > 0 {
		t.Errorf("steady-state ProcessTextInto: %.1f allocs per 16 KiB record, want 0", allocs)
	}

	// The validator follows its own copy of the stream from where the
	// warm-up left it.
	voff := 4 << 20
	sender2 := NewSenderPipeline(sessionKeys(), cfg)
	var sent [][]dpienc.EncryptedToken
	for o := 0; o < voff+52*recordLen; o += recordLen {
		toks, _ = sender2.ProcessTextInto(toks, text[o:o+recordLen])
		if o >= voff {
			sent = append(sent, append([]dpienc.EncryptedToken(nil), toks...))
		}
	}
	i := 0
	var verr error
	if allocs := testing.AllocsPerRun(50, func() {
		v.ReceiveTokens(sent[i])
		if err := v.ValidateText(text[voff : voff+recordLen]); err != nil {
			verr = err
		}
		voff += recordLen
		i++
	}); allocs > 0 {
		t.Errorf("steady-state ReceiveTokens+ValidateText: %.1f allocs per 16 KiB record, want 0", allocs)
	}
	if verr != nil {
		t.Fatal(verr)
	}
}

// TestDirectTokenKeysMatchComputeTokenKey pins the one-expansion shortcut
// to the definition.
func TestDirectTokenKeysMatchComputeTokenKey(t *testing.T) {
	rs := mustRules(t,
		`alert tcp any any -> any any (msg:"a"; content:"maliciously"; sid:1;)`,
		`alert tcp any any -> any any (msg:"b"; content:"login"; content:"?user="; sid:2;)`)
	k := sessionKeys().K
	for _, mode := range []tokenize.Mode{tokenize.Window, tokenize.Delimiter} {
		keys := DirectTokenKeys(k, rs, mode)
		frags := rs.Fragments(mode)
		if len(keys) != len(frags) || len(frags) == 0 {
			t.Fatalf("%s: %d keys for %d fragments", mode, len(keys), len(frags))
		}
		for _, f := range frags {
			if keys[rules.FragmentBlock(f)] != dpienc.ComputeTokenKey(k, f) {
				t.Fatalf("%s: key of fragment %q differs from ComputeTokenKey", mode, f[:])
			}
		}
	}
}

// BenchmarkSenderStreamPosition is the stream-position diagnostic: ns per
// payload byte over the first and over the last 8 MiB of one 64 MiB upload
// through one pipeline. With bounded state the two agree; with state kept
// per distinct token forever the last 8 MiB ran at half the speed of the
// first. Reported, not asserted — it is a timing.
func BenchmarkSenderStreamPosition(b *testing.B) {
	const mib, span = 64, 8
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"delimiter-II", DefaultConfig()},
		{"window-III", Config{Protocol: dpienc.ProtocolIII, Mode: tokenize.Window}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var first, last time.Duration
			for n := 0; n < b.N; n++ {
				p := NewSenderPipeline(sessionKeys(), c.cfg)
				var toks []dpienc.EncryptedToken
				for m := 0; m < mib; m++ {
					text := corpus.SynthesizeTextSeeded(int64(m), 1<<20)
					t0 := time.Now()
					for off := 0; off < len(text); off += recordLen {
						toks, _ = p.ProcessTextInto(toks, text[off:off+recordLen])
					}
					switch d := time.Since(t0); {
					case m < span:
						first += d
					case m >= mib-span:
						last += d
					}
				}
			}
			perByte := float64(b.N) * span * (1 << 20)
			b.ReportMetric(float64(first.Nanoseconds())/perByte, "first8MiB-ns/B")
			b.ReportMetric(float64(last.Nanoseconds())/perByte, "last8MiB-ns/B")
		})
	}
}

// TestLargestRulesetFitsPreparationCap: ruleprep.MaxFragments is what an
// endpoint will garble on a middlebox's word; the 3 000-rule ET-like set,
// the largest this repository prepares, must fit under it with room, in
// either tokenization mode.
func TestLargestRulesetFitsPreparationCap(t *testing.T) {
	spec := corpus.RulesetSpec{Name: "ET-like 3000", NumRules: 3000, P1Frac: 0.016, P2Frac: 0.42, AvgKeywords: 3}
	rs, err := spec.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []tokenize.Mode{tokenize.Delimiter, tokenize.Window} {
		n := len(rs.Fragments(mode))
		if 2*n > ruleprep.MaxFragments {
			t.Errorf("mode %v: %d fragments, too close to the cap of %d", mode, n, ruleprep.MaxFragments)
		}
		t.Logf("mode %v: %d fragments", mode, n)
	}
}
