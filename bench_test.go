// Benchmarks regenerating the paper's evaluation under `go test -bench`:
// one benchmark (or family) per table and figure, plus the design-choice
// ablations DESIGN.md calls out. cmd/blindbench prints the same results as
// formatted tables; these expose them to standard Go tooling.
package blindbox

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	mrand "math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/experiments"
	"repro/internal/garble"
	"repro/internal/netem"
	"repro/internal/ot"
	"repro/internal/ruleprep"
	"repro/internal/rules"
	"repro/internal/strawman"
	"repro/internal/tokenize"
)

func newBenchRand() *mrand.Rand { return mrand.New(mrand.NewSource(experiments.Seed)) }

// ---------------------------------------------------------------------------
// Table 1

// BenchmarkTable1Classification parses and classifies all six dataset
// models (the full Table 1 computation).
func BenchmarkTable1Classification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table 2 — client encryption rows

func benchToken() tokenize.Token {
	var t tokenize.Token
	copy(t.Text[:], "benigntk")
	return t
}

// BenchmarkEncryptTokenVanilla is the vanilla-HTTPS row: AES-GCM over one
// 16-byte block (paper: 13 ns).
func BenchmarkEncryptTokenVanilla(b *testing.B) {
	gcm := bbcrypto.NewGCM(bbcrypto.Block{1})
	nonce := make([]byte, gcm.NonceSize())
	pt := make([]byte, 16)
	buf := make([]byte, 0, 64)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		buf = gcm.Seal(buf[:0], nonce, pt, nil)
	}
}

// BenchmarkEncryptTokenBlindBox is DPIEnc token encryption (paper: 69 ns).
func BenchmarkEncryptTokenBlindBox(b *testing.B) {
	s := dpienc.NewSender(bbcrypto.Block{1}, bbcrypto.Block{2}, dpienc.ProtocolII, 0)
	t := benchToken()
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		t.Offset = i
		s.EncryptToken(t)
	}
}

// BenchmarkEncryptTokenSearchable is the Song-et-al.-style strawman
// (paper: 2.7 µs, dominated by per-token entropy reads).
func BenchmarkEncryptTokenSearchable(b *testing.B) {
	s := strawman.NewSearchableSender(bbcrypto.Block{1})
	t := benchToken()
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		s.EncryptToken(t)
	}
}

// BenchmarkEncryptTokenFE is the functional-encryption strawman (paper:
// 70 ms per 128 bits).
func BenchmarkEncryptTokenFE(b *testing.B) {
	fe := strawman.NewFEScheme()
	t := benchToken()
	for i := 0; i < b.N; i++ {
		fe.Encrypt(t)
	}
}

// BenchmarkEncryptPacketVanilla seals a 1500-byte packet with AES-GCM
// (paper: 3 µs).
func BenchmarkEncryptPacketVanilla(b *testing.B) {
	gcm := bbcrypto.NewGCM(bbcrypto.Block{1})
	nonce := make([]byte, gcm.NonceSize())
	pkt := make([]byte, 1500)
	rand.Read(pkt)
	buf := make([]byte, 0, 2048)
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		buf = gcm.Seal(buf[:0], nonce, pkt, nil)
	}
}

// BenchmarkEncryptPacketBlindBox runs the full sender pipeline (tokenize +
// DPIEnc) over 1500-byte packets, window mode (paper: 90 µs).
func BenchmarkEncryptPacketBlindBox(b *testing.B) {
	keys := bbcrypto.DeriveSessionKeys([]byte("bench"))
	pipe := core.NewSenderPipeline(keys, core.Config{Protocol: dpienc.ProtocolII, Mode: tokenize.Window})
	pkt := corpus.SynthesizeText(newBenchRand(), 1500)
	b.SetBytes(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		toks, _ := pipe.ProcessText(pkt)
		_ = toks
	}
}

// ---------------------------------------------------------------------------
// Table 2 — setup rows (§7.2.2, also the "setup" experiment)

// BenchmarkRulePreparation measures the complete per-keyword setup: both
// endpoints garble F, the middlebox verifies, runs OT and evaluates
// (paper: 588 ms for one keyword end to end).
func BenchmarkRulePreparation(b *testing.B) {
	k := bbcrypto.RandomBlock()
	kRG := bbcrypto.RandomBlock()
	krand := bbcrypto.RandomBlock()
	var frag [tokenize.TokenSize]byte
	copy(frag[:], "benchkw0")
	blk := rules.FragmentBlock(frag)
	req := ruleprep.Request{
		Fragments: []bbcrypto.Block{blk},
		Tags:      []bbcrypto.Block{bbcrypto.MAC(kRG, blk)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb, err := ruleprep.NewMiddlebox(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ruleprep.RunLocal(
			ruleprep.NewEndpoint(k, kRG, krand),
			ruleprep.NewEndpoint(k, kRG, krand), mb); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Table 2 — middlebox detection rows

func detectEngine(b *testing.B, numKeywords int, idx detect.Index) (*detect.Engine, dpienc.EncryptedToken) {
	b.Helper()
	k := bbcrypto.Block{7}
	keys := make(detect.TokenKeys, numKeywords)
	lines := make([]byte, 0, numKeywords*64)
	for i := 0; i < numKeywords; i++ {
		var frag [tokenize.TokenSize]byte
		copy(frag[:], fmt.Sprintf("kw%06x", i))
		keys[rules.FragmentBlock(frag)] = dpienc.ComputeTokenKey(k, frag)
		lines = append(lines, []byte(fmt.Sprintf(
			"alert tcp any any -> any any (content:\"kw%06x\"; sid:%d;)\n", i, i+1))...)
	}
	rs, err := rules.Parse("bench", string(lines))
	if err != nil {
		b.Fatal(err)
	}
	eng := detect.NewEngine(rs, keys, detect.Config{
		Mode: tokenize.Window, Protocol: dpienc.ProtocolII, Index: idx,
	})
	sender := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, 0)
	et := sender.EncryptToken(benchToken()) // never matches
	return eng, et
}

// BenchmarkDetectBlindBox1Rule: one token against one rule (paper: 20 ns).
func BenchmarkDetectBlindBox1Rule(b *testing.B) {
	eng, et := detectEngine(b, 1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ProcessToken(et)
	}
}

// BenchmarkDetectBlindBox3KRules: one token against a 3K-rule keyword set
// (paper: 137 ns — logarithmic in rules).
func BenchmarkDetectBlindBox3KRules(b *testing.B) {
	eng, et := detectEngine(b, 9900, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ProcessToken(et)
	}
}

// BenchmarkScanBatch3KRules: the batched detection path over record-sized
// token batches against the 3K-rule set — the per-token overhead ScanBatch
// amortizes relative to BenchmarkDetectBlindBox3KRules.
func BenchmarkScanBatch3KRules(b *testing.B) {
	eng, et := detectEngine(b, 9900, nil)
	batch := make([]dpienc.EncryptedToken, 512)
	for i := range batch {
		batch[i] = et
	}
	var dst []detect.Event
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = eng.ScanBatch(batch, dst[:0])
	}
	b.ReportMetric(float64(b.N)*512/b.Elapsed().Seconds(), "tokens/s")
}

// BenchmarkDetectBlindBox3KRulesParallel scans record-sized batches on one
// engine per goroutine — the middlebox pool's shard confinement without the
// network. tokens/s is the aggregate across GOMAXPROCS engines; on >= 4
// cores it should be >= 2x BenchmarkScanBatch3KRules' rate.
func BenchmarkDetectBlindBox3KRulesParallel(b *testing.B) {
	n := runtime.GOMAXPROCS(0)
	engines := make(chan *detect.Engine, n)
	var et dpienc.EncryptedToken
	for i := 0; i < n; i++ {
		eng, tok := detectEngine(b, 9900, nil)
		et = tok
		engines <- eng
	}
	batch := make([]dpienc.EncryptedToken, 512)
	for i := range batch {
		batch[i] = et
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		eng := <-engines
		defer func() { engines <- eng }()
		var dst []detect.Event
		for pb.Next() {
			dst = eng.ScanBatch(batch, dst[:0])
		}
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

// BenchmarkDetectSearchable3KRules: the linear-scan strawman at 9900
// keywords (paper: 5.6 ms).
func BenchmarkDetectSearchable3KRules(b *testing.B) {
	k := bbcrypto.Block{7}
	keys := make([]dpienc.TokenKey, 9900)
	for i := range keys {
		var frag [tokenize.TokenSize]byte
		copy(frag[:], fmt.Sprintf("kw%06x", i))
		keys[i] = dpienc.ComputeTokenKey(k, frag)
	}
	mb := strawman.NewSearchableMB(keys)
	ct := strawman.NewSearchableSender(k).EncryptToken(benchToken())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb.Detect(ct)
	}
}

// BenchmarkDetectFE1Rule: one FE predicate test (paper: 170 ms).
func BenchmarkDetectFE1Rule(b *testing.B) {
	fe := strawman.NewFEScheme()
	key := fe.KeyGen(benchToken().Text)
	ct := fe.Encrypt(benchToken())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe.Test(ct, key)
	}
}

// ---------------------------------------------------------------------------
// Figures 3 and 4 — page load model

// BenchmarkPageLoad20Mbps evaluates the Fig. 3 model over all five sites.
func BenchmarkPageLoad20Mbps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PageLoad(netem.Typical20Mbps(), tokenize.Delimiter)
	}
}

// BenchmarkPageLoad1Gbps evaluates the Fig. 4 model.
func BenchmarkPageLoad1Gbps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PageLoad(netem.Fast1Gbps(), tokenize.Delimiter)
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
// §7.1 accuracy and §7.2.3 throughput

// BenchmarkAccuracyTrace runs the full ICTF-like accuracy experiment.
func BenchmarkAccuracyTrace(b *testing.B) {
	opt := experiments.DefaultAccuracyOptions()
	opt.Rules = 100
	opt.Trace.Flows = 40
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Accuracy(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMiddleboxThroughput measures BlindBox Detect over encrypted
// tokens of synthetic traffic; throughput is reported in traffic bytes.
func BenchmarkMiddleboxThroughput(b *testing.B) {
	spec, _ := corpus.DatasetByName("Snort Emerging Threats (HTTP)")
	spec.NumRules = 3000
	spec.P2Frac = 1.0
	rs, err := spec.Generate(experiments.Seed)
	if err != nil {
		b.Fatal(err)
	}
	traffic := corpus.SynthesizeText(newBenchRand(), 1<<20)
	k := bbcrypto.Block{3}
	sender := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, 0)
	ets := sender.EncryptTokensInto(nil, tokenize.TokenizeAll(tokenize.Delimiter, traffic))
	eng := detect.NewEngine(rs, core.DirectTokenKeys(k, rs, tokenize.Delimiter), detect.Config{
		Mode: tokenize.Delimiter, Protocol: dpienc.ProtocolII,
	})
	b.SetBytes(int64(len(traffic)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ets {
			eng.ProcessToken(ets[j])
		}
	}
}

// BenchmarkBaselineThroughput measures the Snort-like plaintext pipeline
// over the same traffic.
func BenchmarkBaselineThroughput(b *testing.B) {
	res, err := experiments.Throughput(experiments.ThroughputOptions{
		Rules: 3000, TrafficBytes: 1 << 20, Mode: tokenize.Delimiter,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.BaselineMbps, "baseline-Mbps")
	b.ReportMetric(res.BlindBoxMbps, "blindbox-Mbps")
	b.ReportMetric(res.SenderMbps, "sender-Mbps")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §4)

// BenchmarkDetectTreeVsHash compares the two Index implementations at 3K
// rules (ablation #1).
func BenchmarkDetectTreeVsHash(b *testing.B) {
	for _, mk := range []func() detect.Index{
		func() detect.Index { return detect.NewTreeIndex() },
		func() detect.Index { return detect.NewHashIndex() },
	} {
		idx := mk()
		b.Run(idx.Name(), func(b *testing.B) {
			eng, et := detectEngine(b, 9900, mk())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ProcessToken(et)
			}
		})
	}
}

// BenchmarkTokenizerAblation compares per-byte tokenizer cost (ablation #2).
func BenchmarkTokenizerAblation(b *testing.B) {
	text := corpus.SynthesizeText(newBenchRand(), 64<<10)
	for _, mode := range []tokenize.Mode{tokenize.Window, tokenize.Delimiter} {
		b.Run(mode.String(), func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				tokenize.TokenizeAll(mode, text)
			}
		})
	}
}

// BenchmarkSaltAblation compares BlindBox counter-table salts against
// transmitted per-token salts (the searchable strawman's approach,
// ablation #3): same AES work, but the strawman pays an entropy read per
// token and 8 extra wire bytes.
func BenchmarkSaltAblation(b *testing.B) {
	t := benchToken()
	b.Run("counter-table", func(b *testing.B) {
		s := dpienc.NewSender(bbcrypto.Block{1}, bbcrypto.Block{}, dpienc.ProtocolII, 0)
		for i := 0; i < b.N; i++ {
			s.EncryptToken(t)
		}
	})
	b.Run("transmitted-salts", func(b *testing.B) {
		s := strawman.NewSearchableSender(bbcrypto.Block{1})
		for i := 0; i < b.N; i++ {
			s.EncryptToken(t)
		}
	})
}

// BenchmarkDPIEncHashAblation compares the AES instantiation of H in
// DPIEnc against a SHA-256 instantiation (§3.1: "SHA-1 is not as fast as
// AES", ablation #4). Like the real sender, the AES variant keys the
// cipher once per token (the key schedule amortizes over occurrences);
// each op is then one block encryption vs one SHA-256 compression.
func BenchmarkDPIEncHashAblation(b *testing.B) {
	tk := dpienc.ComputeTokenKey(bbcrypto.Block{1}, benchToken().Text)
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
	t := benchToken()
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

// BenchmarkGarbleSBox compares garbling the AES circuit built with each
// S-box construction (DESIGN.md substitution #2 ablation).
func BenchmarkGarbleSBox(b *testing.B) {
	for _, impl := range []circuit.SBoxImpl{circuit.SBoxGF, circuit.SBoxMux} {
		c := circuit.BuildAES128(impl)
		b.Run(impl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := garble.Garble(c, ruleprep.FixedGarblingKey, bbcrypto.NewPRG(bbcrypto.Block{byte(i)})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGarbleF measures garbling the rule-encryption circuit F once — an
// endpoint's per-fragment cost during setup — and reports what a gate-count
// regression would move: F's AND gates and the bytes of one garbled F.
func BenchmarkGarbleF(b *testing.B) {
	f := ruleprep.F()
	b.ReportAllocs()
	var size int
	for i := 0; i < b.N; i++ {
		g, _, err := garble.Garble(f, ruleprep.FixedGarblingKey, bbcrypto.NewPRG(bbcrypto.Block{byte(i)}))
		if err != nil {
			b.Fatal(err)
		}
		size = g.Size()
	}
	b.ReportMetric(float64(f.NumAND()), "ANDs")
	b.ReportMetric(float64(size), "bytes/circuit")
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

// BenchmarkGarbleRows compares the three AND-gate table constructions on
// a garbled AES-128 (wire sizes: 4, 3 and 2 blocks per gate).
func BenchmarkGarbleRows(b *testing.B) {
	c := circuit.BuildAES128(circuit.SBoxGF)
	for _, v := range []struct {
		name string
		opts garble.Options
	}{
		{"pp4", garble.Options{FullRows: true}},
		{"grr3", garble.Options{GRR3: true}},
		{"half2", garble.Options{}},
	} {
		b.Run(v.name, func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				g, _, err := garble.GarbleWith(c, ruleprep.FixedGarblingKey, bbcrypto.NewPRG(bbcrypto.Block{byte(i)}), v.opts)
				if err != nil {
					b.Fatal(err)
				}
				size = g.Size()
			}
			b.ReportMetric(float64(size), "wire-bytes")
		})
	}
}
