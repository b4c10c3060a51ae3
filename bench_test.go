// Benchmarks under `go test -bench`. BenchmarkPaper runs every timed cell
// of the paper's tables: internal/experiments' Cells, the same functions
// cmd/blindbench prints Table 2, §7.2.2, Figs. 3/4 and §7.2.3 from. The
// rest time what no experiment prints: the sender pipeline stage by stage,
// the AES kernel, batched and parallel detection, rule preparation's
// evaluation and OT legs, and the design-choice ablations DESIGN.md calls
// out.
package blindbox

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/experiments"
	"repro/internal/garble"
	"repro/internal/ot"
	"repro/internal/ruleprep"
	"repro/internal/tokenize"
)

// BenchmarkPaper runs each of the paper's timed cells as a sub-benchmark
// named after the cell.
func BenchmarkPaper(b *testing.B) {
	for _, c := range experiments.Cells() {
		b.Run(c.Name, c.F)
	}
}

// keywordEngine is experiments.KeywordEngine at the 3K-rule set's 9 900
// keywords.
func keywordEngine(b *testing.B) *detect.Engine {
	b.Helper()
	eng, _, err := experiments.KeywordEngine(9900)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// keywordStream is experiments.KeywordStream for keywordEngine: 64 KiB of
// window-mode traffic with the 3K-rule set's keywords planted in it.
var keywordStream = sync.OnceValue(func() []dpienc.EncryptedToken {
	return experiments.KeywordStream(9900, 64<<10)
})

// scanStream scans the keyword stream in record-sized batches, one batch
// per call of next, and starts over at its end after calling restart.
func scanStream(eng *detect.Engine, next func() bool, restart func()) {
	const batch = 512
	ets := keywordStream()
	var dst []detect.Event
	for off := 0; next(); off += batch {
		if off+batch > len(ets) {
			restart()
			off = 0
		}
		dst = eng.ScanBatch(ets[off:off+batch], dst[:0])
	}
}

// BenchmarkScanBatch3KRules: the batched detection path over record-sized
// batches of window-mode traffic against the 3K-rule set — the per-token
// overhead ScanBatch amortizes relative to
// BenchmarkPaper/detect/blindbox-9900, on tokens that spread over the
// table's slots and sometimes match. At the stream's end the engine resets
// off the clock, so the planted keywords match again.
func BenchmarkScanBatch3KRules(b *testing.B) {
	eng := keywordEngine(b)
	keywordStream()
	i := 0
	b.ResetTimer()
	scanStream(eng, func() bool { i++; return i <= b.N }, func() {
		b.StopTimer()
		eng.Reset(0)
		b.StartTimer()
	})
	b.ReportMetric(float64(b.N)*512/b.Elapsed().Seconds(), "tokens/s")
}

// BenchmarkDetectBlindBox3KRulesParallel scans the same batches on one
// engine per goroutine — the middlebox pool's shard confinement without the
// network. tokens/s is the aggregate across GOMAXPROCS engines; on >= 4
// cores it should be >= 2x BenchmarkScanBatch3KRules' rate. The timer is
// global under RunParallel, so an engine does not reset: after its first
// pass the planted keywords miss like the rest of the stream (a match is
// one token in ~256, so the rates stay comparable).
func BenchmarkDetectBlindBox3KRulesParallel(b *testing.B) {
	n := runtime.GOMAXPROCS(0)
	engines := make(chan *detect.Engine, n)
	for i := 0; i < n; i++ {
		engines <- keywordEngine(b)
	}
	keywordStream()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		eng := <-engines
		defer func() { engines <- eng }()
		scanStream(eng, pb.Next, func() {})
	})
	b.ReportMetric(float64(b.N)*512/b.Elapsed().Seconds(), "tokens/s")
}

// BenchmarkEncryptTokensBatch: batched DPIEnc over record-sized token
// slices with a reused output buffer (the transport hot path).
func BenchmarkEncryptTokensBatch(b *testing.B) {
	s := dpienc.NewSender(bbcrypto.Block{1}, bbcrypto.Block{2}, dpienc.ProtocolII, 0)
	toks := make([]tokenize.Token, 512)
	for i := range toks {
		copy(toks[i].Text[:], fmt.Sprintf("tk%06x", i%64))
		toks[i].Offset = i * 8
	}
	var out []dpienc.EncryptedToken
	b.SetBytes(512 * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = s.EncryptTokensInto(out[:0], toks)
	}
	b.ReportMetric(float64(b.N)*512/b.Elapsed().Seconds(), "tokens/s")
}

// The sender pipeline stage by stage — tokenize, salt assignment, DPIEnc AES
// — and whole, on the two configurations the end-to-end benchmark's text
// workloads run (bulk_text: delimiter tokens under Protocol II;
// bulk_window_p3: window tokens under Protocol III): 8 MiB of synthesized
// text fed in 16 KiB records, as Conn.write feeds it, to a fresh tokenizer
// and Sender per pass. The three stage benchmarks run the same pass and time
// only their own stage, so each stage sees its input as hot in cache as the
// live pipeline leaves it. PERFORMANCE.md's stage table is their output.
var senderStageCases = []struct {
	name  string
	mode  tokenize.Mode
	proto dpienc.Protocol
}{
	{"delimiter-P2", tokenize.Delimiter, dpienc.ProtocolII},
	{"window-P3", tokenize.Window, dpienc.ProtocolIII},
}

const (
	senderStageText   = 8 << 20
	senderStageRecord = 16 << 10
)

// senderStages is the time one pass spent in each stage, and its token count.
type senderStages struct {
	tokenize, assign, encrypt time.Duration
	tokens                    int
}

func runSenderStages(text []byte, mode tokenize.Mode, proto dpienc.Protocol) (st senderStages) {
	keys := bbcrypto.DeriveSessionKeys([]byte("bench"))
	tk, s := tokenize.New(mode), dpienc.NewSender(keys.K, keys.KSSL, proto, 0)
	var (
		toks []tokenize.Token
		asg  []dpienc.TokenAssignment
		out  []dpienc.EncryptedToken
	)
	for off := 0; off < len(text); off += senderStageRecord {
		s.AccountBytes(senderStageRecord)
		t0 := time.Now()
		toks = tk.AppendInto(toks, text[off:off+senderStageRecord])
		t1 := time.Now()
		asg = s.AssignTokens(toks, asg[:0])
		t2 := time.Now()
		out = dpienc.GrowTokenBuf(out, len(asg))
		s.EncryptAssigned(asg, out)
		t3 := time.Now()
		st.tokenize += t1.Sub(t0)
		st.assign += t2.Sub(t1)
		st.encrypt += t3.Sub(t2)
		st.tokens += len(toks)
	}
	return st
}

// benchSenderStage reports one stage of runSenderStages per byte of text and
// per token (ns/op is that stage's time for the whole pass, not the pass's).
func benchSenderStage(b *testing.B, stage func(senderStages) time.Duration) {
	text := corpus.SynthesizeTextSeeded(experiments.Seed, senderStageText)
	for _, c := range senderStageCases {
		b.Run(c.name, func(b *testing.B) {
			var ns, tokens float64
			for i := 0; i < b.N; i++ {
				st := runSenderStages(text, c.mode, c.proto)
				ns += float64(stage(st))
				tokens += float64(st.tokens)
			}
			b.ReportMetric(ns/float64(b.N), "ns/op")
			b.ReportMetric(ns/float64(b.N*len(text)), "ns/B")
			b.ReportMetric(ns/tokens, "ns/token")
		})
	}
}

func BenchmarkSenderStageTokenize(b *testing.B) {
	benchSenderStage(b, func(st senderStages) time.Duration { return st.tokenize })
}

func BenchmarkSenderStageAssign(b *testing.B) {
	benchSenderStage(b, func(st senderStages) time.Duration { return st.assign })
}

func BenchmarkSenderStageEncrypt(b *testing.B) {
	benchSenderStage(b, func(st senderStages) time.Duration { return st.encrypt })
}

// BenchmarkSenderStagePipeline is the same pass through
// core.SenderPipeline.ProcessTextInto, the call Conn.write and the §3.4
// validator make per record.
func BenchmarkSenderStagePipeline(b *testing.B) {
	text := corpus.SynthesizeTextSeeded(experiments.Seed, senderStageText)
	keys := bbcrypto.DeriveSessionKeys([]byte("bench"))
	for _, c := range senderStageCases {
		b.Run(c.name, func(b *testing.B) {
			var out []dpienc.EncryptedToken
			tokens := 0
			for i := 0; i < b.N; i++ {
				pipe := core.NewSenderPipeline(keys, core.Config{Protocol: c.proto, Mode: c.mode})
				for off := 0; off < len(text); off += senderStageRecord {
					out, _ = pipe.ProcessTextInto(out, text[off:off+senderStageRecord])
					tokens += len(out)
				}
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(b.N*len(text)), "ns/B")
			b.ReportMetric(ns/float64(tokens), "ns/token")
		})
	}
}

// ---------------------------------------------------------------------------
// Figures 5 and 6 — tokenization bandwidth

// BenchmarkTokenizeTop50 measures both tokenizers over the top-50 corpus
// (the Fig. 5 computation); reported bytes are page bytes processed.
func BenchmarkTokenizeTop50(b *testing.B) {
	pages := corpus.Top50(experiments.Seed)
	total := 0
	for _, p := range pages {
		total += p.TotalBytes()
	}
	for _, mode := range []tokenize.Mode{tokenize.Window, tokenize.Delimiter} {
		b.Run(mode.String(), func(b *testing.B) {
			b.SetBytes(int64(total))
			for i := 0; i < b.N; i++ {
				for _, p := range pages {
					tk := tokenize.New(mode)
					for _, seg := range p.Flow() {
						if seg.Binary {
							tk.Skip(len(seg.Data))
						} else {
							tk.Append(seg.Data)
						}
					}
					tk.Flush()
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4)

// BenchmarkTokenizerAblation compares per-byte tokenizer cost (ablation #2).
func BenchmarkTokenizerAblation(b *testing.B) {
	text := corpus.SynthesizeTextSeeded(experiments.Seed, 64<<10)
	for _, mode := range []tokenize.Mode{tokenize.Window, tokenize.Delimiter} {
		b.Run(mode.String(), func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				tokenize.TokenizeAll(mode, text)
			}
		})
	}
}

// BenchmarkDPIEncHashAblation compares the AES instantiation of H in
// DPIEnc against a SHA-256 instantiation (§3.1: "SHA-1 is not as fast as
// AES", ablation #4). Like the real sender, the AES variant keys the
// cipher once per token (the key schedule amortizes over occurrences);
// each op is then one block encryption vs one SHA-256 compression.
func BenchmarkDPIEncHashAblation(b *testing.B) {
	tk := dpienc.ComputeTokenKey(bbcrypto.Block{1}, experiments.BenchToken().Text)
	b.Run("aes", func(b *testing.B) {
		blk := bbcrypto.NewAES(tk)
		var pt, ct bbcrypto.Block
		for i := 0; i < b.N; i++ {
			pt[8] = byte(i)
			blk.Encrypt(ct[:], pt[:])
		}
	})
	b.Run("sha256", func(b *testing.B) {
		var salt [8]byte
		for i := 0; i < b.N; i++ {
			salt[0] = byte(i)
			h := sha256.New()
			h.Write(salt[:])
			h.Write(tk[:])
			h.Sum(nil)
		}
	})
}

// The AES-128 kernel of internal/bbcrypto, one block wide and four, beside
// the crypto/aes calls it replaces on the token path. A first-seen token (or
// a schedule-cache miss) costs one key expansion plus two encryptions, a
// cached one a single encryption; crypto/aes pays a heap object per
// expansion. The ×4 sub-benchmarks are one call on four keys / blocks, so
// their ns/op is to be read against four of the kernel's; ns/block says it.
// DESIGN.md §5 quotes these.
var (
	benchAESSink  bbcrypto.Block
	benchAESSink4 [4]bbcrypto.Block
)

// benchSchedules4 is four schedules, as the pointer array the ×4 calls take.
func benchSchedules4() *[4]*bbcrypto.Schedule {
	s := new([4]bbcrypto.Schedule)
	return &[4]*bbcrypto.Schedule{&s[0], &s[1], &s[2], &s[3]}
}

func reportPerBlock(b *testing.B, blocks int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blocks), "ns/block")
}

func BenchmarkAES128Expand(b *testing.B) {
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		key := bbcrypto.Block{1}
		var s bbcrypto.Schedule
		for i := 0; i < b.N; i++ {
			key[0] = byte(i)
			s.Expand(&key)
		}
		s.Encrypt(&benchAESSink, &key)
		reportPerBlock(b, 1)
	})
	b.Run("kernel-x4", func(b *testing.B) {
		b.ReportAllocs()
		keys := [4]bbcrypto.Block{{1}, {2}, {3}, {4}}
		s := benchSchedules4()
		for i := 0; i < b.N; i++ {
			keys[i&3][0] = byte(i)
			bbcrypto.Expand4(s, &keys)
		}
		bbcrypto.Encrypt4(s, &benchAESSink4, &keys)
		reportPerBlock(b, 4)
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		key := bbcrypto.Block{1}
		for i := 0; i < b.N; i++ {
			key[0] = byte(i)
			bbcrypto.NewAES(key)
		}
		reportPerBlock(b, 1)
	})
}

func BenchmarkAES128Encrypt(b *testing.B) {
	key := bbcrypto.Block{1}
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		var s bbcrypto.Schedule
		s.Expand(&key)
		var pt bbcrypto.Block
		for i := 0; i < b.N; i++ {
			pt[8] = byte(i)
			s.Encrypt(&benchAESSink, &pt)
		}
		reportPerBlock(b, 1)
	})
	b.Run("kernel-x4", func(b *testing.B) {
		b.ReportAllocs()
		keys := [4]bbcrypto.Block{{1}, {2}, {3}, {4}}
		s := benchSchedules4()
		bbcrypto.Expand4(s, &keys)
		var pts [4]bbcrypto.Block
		for i := 0; i < b.N; i++ {
			pts[i&3][8] = byte(i)
			bbcrypto.Encrypt4(s, &benchAESSink4, &pts)
		}
		reportPerBlock(b, 4)
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		blk := bbcrypto.NewAES(key)
		var pt bbcrypto.Block
		for i := 0; i < b.N; i++ {
			pt[8] = byte(i)
			blk.Encrypt(benchAESSink[:], pt[:])
		}
		reportPerBlock(b, 1)
	})
}

func BenchmarkAES128ExpandEncrypt(b *testing.B) {
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		key := bbcrypto.Block{1}
		var pt bbcrypto.Block
		var s bbcrypto.Schedule
		for i := 0; i < b.N; i++ {
			key[0] = byte(i)
			s.Expand(&key)
			s.Encrypt(&benchAESSink, &pt)
		}
		reportPerBlock(b, 1)
	})
	b.Run("kernel-x4", func(b *testing.B) {
		b.ReportAllocs()
		keys := [4]bbcrypto.Block{{1}, {2}, {3}, {4}}
		var pts [4]bbcrypto.Block
		s := benchSchedules4()
		for i := 0; i < b.N; i++ {
			keys[i&3][0] = byte(i)
			bbcrypto.Expand4(s, &keys)
			bbcrypto.Encrypt4(s, &benchAESSink4, &pts)
		}
		reportPerBlock(b, 4)
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		key := bbcrypto.Block{1}
		var pt bbcrypto.Block
		for i := 0; i < b.N; i++ {
			key[0] = byte(i)
			bbcrypto.NewAES(key).Encrypt(benchAESSink[:], pt[:])
		}
		reportPerBlock(b, 1)
	})
}

// BenchmarkProtocolIIIOverhead compares Protocol II and Protocol III token
// encryption (ablation #5: the paired ciphertext costs one extra AES call
// and 16 wire bytes per token).
func BenchmarkProtocolIIIOverhead(b *testing.B) {
	t := experiments.BenchToken()
	for _, proto := range []dpienc.Protocol{dpienc.ProtocolII, dpienc.ProtocolIII} {
		b.Run(proto.String(), func(b *testing.B) {
			s := dpienc.NewSender(bbcrypto.Block{1}, bbcrypto.Block{2}, proto, 0)
			for i := 0; i < b.N; i++ {
				t.Offset = i
				s.EncryptToken(t)
			}
		})
	}
}

// BenchmarkEvalF measures evaluating one garbled F — the middlebox's
// per-fragment cost during setup.
func BenchmarkEvalF(b *testing.B) {
	f := ruleprep.F()
	g, labels, err := garble.Garble(f, ruleprep.FixedGarblingKey, bbcrypto.NewPRG(bbcrypto.Block{1}))
	if err != nil {
		b.Fatal(err)
	}
	in := make([]garble.Block, f.NInputs)
	for i := range in {
		in[i] = labels.For(i, i%3 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := garble.Eval(f, g, in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.NumAND()), "ANDs")
	b.ReportMetric(float64(g.Size()), "bytes/circuit")
}

// BenchmarkOTLeg measures the oblivious transfer of one rule-preparation
// leg at the benchmark's six-fragment size, 1 536 wires: the base phase and
// the IKNP extension, both parties in one process.
func BenchmarkOTLeg(b *testing.B) {
	const wires = 6 * 256
	pairs := make([][2]bbcrypto.Block, wires)
	choices := make([]bool, wires)
	for i := range pairs {
		pairs[i] = [2]bbcrypto.Block{bbcrypto.RandomBlock(), bbcrypto.RandomBlock()}
		choices[i] = i%3 == 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ot.ExtTransfer(pairs, choices); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(wires, "wires")
}
