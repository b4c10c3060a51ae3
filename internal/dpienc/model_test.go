package dpienc_test

import (
	"crypto/aes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/rules"
	"repro/internal/tokenize"
)

// modelSender is the §3.1/§3.2 sender written for obviousness: a map of
// counters that is cleared at every reset, and a fresh crypto/aes cipher
// for every AES call. dpienc.Sender must emit its stream byte for byte
// whatever its table and cache evict.
type modelSender struct {
	k, kSSL      bbcrypto.Block
	proto        dpienc.Protocol
	salt0, maxCt uint64
	counts       map[[tokenize.TokenSize]byte]uint64
	bytes, p     int
}

func aesBlock(key bbcrypto.Block, salt uint64) (out bbcrypto.Block) {
	c, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	var pt bbcrypto.Block
	binary.BigEndian.PutUint64(pt[8:], salt)
	c.Encrypt(out[:], pt[:])
	return out
}

func (m *modelSender) encrypt(t tokenize.Token) dpienc.EncryptedToken {
	stride := uint64(1)
	if m.proto == dpienc.ProtocolIII {
		stride = 2
	}
	ct := m.counts[t.Text]
	m.counts[t.Text] = ct + stride
	m.maxCt = max(m.maxCt, ct+stride)

	var padded, tk bbcrypto.Block
	copy(padded[:], t.Text[:])
	kc, err := aes.NewCipher(m.k[:])
	if err != nil {
		panic(err)
	}
	kc.Encrypt(tk[:], padded[:])

	out := dpienc.EncryptedToken{Offset: t.Offset}
	c1 := aesBlock(tk, m.salt0+ct)
	copy(out.C1[:], c1[:dpienc.CiphertextSize])
	if m.proto == dpienc.ProtocolIII {
		out.C2 = aesBlock(tk, m.salt0+ct+1).XOR(m.kSSL)
	}
	return out
}

func (m *modelSender) account(n int) (uint64, bool) {
	if m.bytes += n; m.bytes < m.p {
		return 0, false
	}
	m.reset(m.salt0 + m.maxCt + 1)
	return m.salt0, true
}

func (m *modelSender) reset(salt0 uint64) {
	m.salt0, m.maxCt, m.bytes = salt0, 0, 0
	clear(m.counts)
}

// skewedStream draws tokens the way traffic does: a few hot tokens, a warm
// vocabulary, and a tail of tokens never seen again — the tail is what
// fills the counter table with stale slots for later tokens to take over. planted,
// when non-nil, are extra tokens mixed in at a low rate.
type skewedStream struct {
	rng     *rand.Rand
	hot     [][tokenize.TokenSize]byte
	warm    [][tokenize.TokenSize]byte
	planted [][tokenize.TokenSize]byte
	offset  int
}

func newSkewedStream(rng *rand.Rand, planted [][tokenize.TokenSize]byte) *skewedStream {
	g := &skewedStream{rng: rng, planted: planted}
	g.hot = make([][tokenize.TokenSize]byte, 6)
	g.warm = make([][tokenize.TokenSize]byte, 150)
	for i := range g.hot {
		rng.Read(g.hot[i][:])
	}
	for i := range g.warm {
		rng.Read(g.warm[i][:])
	}
	// The all-zero token (eight Pad bytes) is a legitimate token and the
	// value an empty table slot and an empty cache line hold.
	g.warm[0] = [tokenize.TokenSize]byte{}
	return g
}

func (g *skewedStream) next(n int) []tokenize.Token {
	toks := make([]tokenize.Token, n)
	for i := range toks {
		switch p := g.rng.Intn(100); {
		case p < 3 && len(g.planted) > 0:
			toks[i].Text = g.planted[g.rng.Intn(len(g.planted))]
		case p < 45:
			toks[i].Text = g.hot[g.rng.Intn(len(g.hot))]
		case p < 80:
			toks[i].Text = g.warm[g.rng.Intn(len(g.warm))]
		default:
			g.rng.Read(toks[i].Text[:])
		}
		toks[i].Offset = g.offset
		g.offset += 1 + g.rng.Intn(4)
	}
	return toks
}

// TestSenderMatchesModel is the divergence test of the flat DPIEnc state:
// over random skewed token streams, byte-driven and forced resets and all
// three protocols — through every encrypt entry point, with the schedule
// cache shrunk so direct-mapped conflicts, cache growth, table growth and
// stale-slot takeover happen every few hundred tokens — the Sender's output
// equals the model's.
func TestSenderMatchesModel(t *testing.T) {
	k := bbcrypto.DeriveBlock([]byte("model"), "k")
	kSSL := bbcrypto.DeriveBlock([]byte("model"), "kssl")
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		proto := dpienc.Protocol(1 + seed%3)
		p := 500 + rng.Intn(8000)
		salt0 := rng.Uint64() >> 8

		m := &modelSender{k: k, kSSL: kSSL, proto: proto, salt0: salt0, p: p,
			counts: map[[tokenize.TokenSize]byte]uint64{}}
		s := dpienc.NewSender(k, kSSL, proto, salt0)
		s.SetResetInterval(p)
		s.ShrinkScheduleCache(1 << (seed % 7)) // 1 … 64 entries
		slots0, _, _ := s.StateSize()
		grew := false

		g := newSkewedStream(rng, nil)
		var buf []dpienc.EncryptedToken
		for batch := 0; batch < 120; batch++ {
			toks := g.next(1 + rng.Intn(600))
			switch batch % 3 {
			case 0:
				buf = s.EncryptTokensInto(buf, toks)
			case 1:
				buf = buf[:0]
				for _, tok := range toks {
					buf = append(buf, s.EncryptToken(tok))
				}
			default:
				buf = dpienc.GrowTokenBuf(buf, len(toks))
				s.EncryptAssigned(s.AssignTokens(toks, nil), buf)
			}
			for i, tok := range toks {
				if want := m.encrypt(tok); buf[i] != want {
					t.Fatalf("seed %d proto %s batch %d token %d: sender %+v, model %+v",
						seed, proto, batch, i, buf[i], want)
				}
			}
			if slots, _, _ := s.StateSize(); slots != slots0 {
				grew = true
			}

			if rng.Intn(10) == 0 {
				forced := m.salt0 + m.maxCt + 1 + uint64(rng.Intn(1000))
				m.reset(forced)
				s.Reset(forced)
				continue
			}
			n := len(toks) * (1 + rng.Intn(3))
			wantSalt, wantReset := m.account(n)
			gotSalt, gotReset := s.AccountBytes(n)
			if gotSalt != wantSalt || gotReset != wantReset {
				t.Fatalf("seed %d batch %d: AccountBytes = (%d, %v), model (%d, %v)",
					seed, batch, gotSalt, gotReset, wantSalt, wantReset)
			}
		}
		if !grew {
			t.Fatalf("seed %d: the counter table never outgrew its first array; the stream does not test growth", seed)
		}
	}
}

// checkAgainstModel encrypts toks as one batch and holds the output to the
// model's, byte for byte.
func checkAgainstModel(t *testing.T, label string, s *dpienc.Sender, m *modelSender, toks []tokenize.Token) {
	t.Helper()
	got := s.EncryptTokensInto(nil, toks)
	for i, tok := range toks {
		if want := m.encrypt(tok); got[i] != want {
			t.Fatalf("%s: token %d of %d (%x): sender %+v, model %+v", label, i, len(toks), tok.Text, got[i], want)
		}
	}
}

// TestSenderMatchesModelAtChunkEdges aims at the chunked schedule
// resolution of EncryptAssigned what TestSenderMatchesModel leaves to
// chance: batches that end just before, on and after a group of four and a
// chunk; a token repeated inside one chunk; a cached line hit and then
// missed by a conflicting token in the same chunk (the hit's schedule must
// survive until the chunk is encrypted), a line claimed by a miss and then
// hit, and then conflicted with; and the cache doubling between the chunks
// of one batch. Protocol II and III.
func TestSenderMatchesModelAtChunkEdges(t *testing.T) {
	k := bbcrypto.DeriveBlock([]byte("edges"), "k")
	kSSL := bbcrypto.DeriveBlock([]byte("edges"), "kssl")
	const lines = 16

	// Tokens by cache line of a 16-line cache: sameLine[i] all share one
	// line, spread[i] sits on line i.
	var sameLine, spread [][tokenize.TokenSize]byte
	onLine := map[int]bool{}
	for i := uint64(0); len(sameLine) < 4 || len(spread) < lines; i++ {
		var text [tokenize.TokenSize]byte
		binary.BigEndian.PutUint64(text[:], 0x6564676573000000+i)
		line := dpienc.ScheduleCacheLine(text, lines)
		if line == 5 && len(sameLine) < 4 {
			sameLine = append(sameLine, text)
		} else if !onLine[line] {
			onLine[line] = true
			spread = append(spread, text)
		}
	}
	a, b, c, d := sameLine[0], sameLine[1], sameLine[2], sameLine[3]

	for _, proto := range []dpienc.Protocol{dpienc.ProtocolII, dpienc.ProtocolIII} {
		m := &modelSender{k: k, kSSL: kSSL, proto: proto, salt0: 9, p: 1 << 30,
			counts: map[[tokenize.TokenSize]byte]uint64{}}
		s := dpienc.NewSender(k, kSSL, proto, 9)
		s.ShrinkScheduleCache(lines)
		offset := 0
		batch := func(texts ...[tokenize.TokenSize]byte) []tokenize.Token {
			toks := make([]tokenize.Token, len(texts))
			for i, text := range texts {
				toks[i] = tokenize.Token{Text: text, Offset: offset}
				offset += 3
			}
			return toks
		}

		// Batch lengths around the group and the chunk, over few enough
		// distinct tokens that most are hits.
		rng := rand.New(rand.NewSource(int64(proto)))
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 127, 128, 129, 255, 256, 257} {
			texts := make([][tokenize.TokenSize]byte, n)
			for i := range texts {
				texts[i] = spread[rng.Intn(len(spread))]
			}
			checkAgainstModel(t, fmt.Sprintf("%s, %d tokens", proto, n), s, m, batch(texts...))
		}

		// One token, a whole chunk and one more.
		repeated := make([][tokenize.TokenSize]byte, dpienc.EncChunk+1)
		for i := range repeated {
			repeated[i] = a
		}
		checkAgainstModel(t, proto.String()+", one token repeated", s, m, batch(repeated...))

		// a is cached by now. Hit it, miss on its line with b (which must
		// not take the line before a's encryptions ran), hit it again; then
		// b twice more, every one a miss on a taken line.
		checkAgainstModel(t, proto.String()+", hit then conflicting miss", s, m,
			batch(a, b, a, spread[0], b, b, a, spread[1]))
		// c misses and claims the line (a's chunk is over), c again hits
		// the claimed line before its schedule is derived, d and a conflict
		// with it.
		checkAgainstModel(t, proto.String()+", miss then hit", s, m,
			batch(c, c, d, a, c, spread[2], d, c))
		// The same inside a longer batch, so that the conflicts fall in the
		// second chunk and in the one-block tail.
		long := make([][tokenize.TokenSize]byte, 0, 2*dpienc.EncChunk+3)
		for i := 0; i < dpienc.EncChunk-2; i++ {
			long = append(long, spread[i%len(spread)])
		}
		long = append(long, a, b, a, c, c, d, a, b)
		for len(long) < 2*dpienc.EncChunk {
			long = append(long, spread[len(long)%len(spread)])
		}
		long = append(long, d, d, a)
		checkAgainstModel(t, proto.String()+", conflicts across a chunk boundary", s, m, batch(long...))

		// Growth in the middle of a stream: with room for 256 lines, 129
		// fresh tokens a batch double the cache between the chunks of a
		// batch, while earlier tokens come back as hits.
		s.ShrinkScheduleCache(256)
		var seen [][tokenize.TokenSize]byte
		for round := 0; round < 6; round++ {
			texts := make([][tokenize.TokenSize]byte, 129)
			for i := range texts {
				if len(seen) > 0 && rng.Intn(3) == 0 {
					texts[i] = seen[rng.Intn(len(seen))]
					continue
				}
				rng.Read(texts[i][:])
				seen = append(seen, texts[i])
			}
			checkAgainstModel(t, fmt.Sprintf("%s, growth round %d", proto, round), s, m, batch(texts...))
		}
		if _, cached, _ := s.StateSize(); cached != 256 {
			t.Fatalf("%s: the schedule cache holds %d lines after 600 distinct tokens, want 256: it did not grow mid-stream", proto, cached)
		}
	}
}

// TestCounterTableStaysBounded pins the eviction policy from outside: a
// stream whose tail tokens never repeat grows a map forever, while the
// table's capacity settles at what one reset interval needs.
func TestCounterTableStaysBounded(t *testing.T) {
	s := dpienc.NewSender(bbcrypto.Block{1}, bbcrypto.Block{2}, dpienc.ProtocolII, 0)
	s.SetResetInterval(4000)
	g := newSkewedStream(rand.New(rand.NewSource(1)), nil)
	var buf []dpienc.EncryptedToken
	peak := 0
	for batch := 0; batch < 2000; batch++ {
		toks := g.next(250) // ≈ 50 never-repeated tokens per batch, 100 000 in all
		buf = s.EncryptTokensInto(buf, toks)
		s.AccountBytes(len(toks))
		if slots, _, _ := s.StateSize(); batch >= 100 && slots > peak {
			peak = slots
		}
	}
	// A reset every 16 batches: ≈ 800 tail tokens + 156 vocabulary tokens
	// per interval and only the current interval's are live, so the table
	// stops doubling at the first size they fill to under three quarters.
	// (Keeping the previous interval too, as the table once did, needed 8192.)
	if peak > 2048 {
		t.Fatalf("table grew to %d slots over 100 000 distinct tokens; eviction is not bounding it", peak)
	}
}

// TestEngineFollowsSenderAcrossEvictions runs the same kind of stream into
// detect.Engine, announcing salts the way Conn.write does (the RecSalt
// record precedes the token record of the write that reset): every planted
// keyword occurrence must alert at its offset, before and after resets,
// table growth, stale-slot takeover and cache evictions, and nothing else may
// alert. (The
// engine reports every occurrence as a KeywordMatch; RuleMatch fires once
// per rule and connection.)
func TestEngineFollowsSenderAcrossEvictions(t *testing.T) {
	keywords := []string{"attackkw", "maliciou", "exploit!"}
	var lines []string
	var planted [][tokenize.TokenSize]byte
	for i, kw := range keywords {
		lines = append(lines, fmt.Sprintf(`alert tcp any any -> any any (msg:"m%d"; content:"%s"; sid:%d;)`, i, kw, 100+i))
		var text [tokenize.TokenSize]byte
		copy(text[:], kw)
		planted = append(planted, text)
	}
	rs, err := rules.Parse("model", strings.Join(lines, "\n"))
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		proto := dpienc.Protocol(1 + seed%3)
		k := bbcrypto.DeriveBlock([]byte{byte(seed)}, "k")
		kSSL := bbcrypto.DeriveBlock([]byte{byte(seed)}, "kssl")
		keys := detect.TokenKeys{}
		for _, text := range planted {
			keys[rules.FragmentBlock(text)] = dpienc.ComputeTokenKey(k, text)
		}

		s := dpienc.NewSender(k, kSSL, proto, 77)
		s.SetResetInterval(3000)
		s.ShrinkScheduleCache(4)
		eng := detect.NewEngine(rs, keys, detect.Config{Mode: tokenize.Window, Protocol: proto, Salt0: 77})

		g := newSkewedStream(rng, planted)
		var buf []dpienc.EncryptedToken
		var evs []detect.Event
		resets, wantAlerts := 0, 0
		for batch := 0; batch < 150; batch++ {
			toks := g.next(1 + rng.Intn(400))
			if salt0, reset := s.AccountBytes(len(toks)); reset {
				eng.Reset(salt0)
				resets++
			}
			buf = s.EncryptTokensInto(buf, toks)
			evs = eng.ScanBatch(buf, evs[:0])

			want := map[int]bool{}
			for _, tok := range toks {
				for _, text := range planted {
					if tok.Text == text {
						want[tok.Offset] = true
					}
				}
			}
			wantAlerts += len(want)
			got := map[int]bool{}
			for _, ev := range evs {
				if ev.Kind != detect.KeywordMatch {
					continue
				}
				if !want[ev.Offset] {
					t.Fatalf("seed %d batch %d: alert at offset %d where no keyword was planted", seed, batch, ev.Offset)
				}
				if proto == dpienc.ProtocolIII && (!ev.HasSSLKey || ev.SSLKey != kSSL) {
					t.Fatalf("seed %d batch %d: Protocol III alert did not recover kSSL", seed, batch)
				}
				got[ev.Offset] = true
			}
			for off := range want {
				if !got[off] {
					t.Fatalf("seed %d proto %s batch %d (after %d resets): planted keyword at offset %d was missed",
						seed, proto, batch, resets, off)
				}
			}
		}
		if resets < 5 || wantAlerts < 100 {
			t.Fatalf("seed %d: only %d resets and %d planted keywords; the stream does not test the property", seed, resets, wantAlerts)
		}
	}
}

// TestStateSizeSettles drives 32 MiB of synthesized text through the
// tokenizer and one Sender the way core.SenderPipeline does and pins the
// shape of the bound: the table's capacity and the cache's size at MiB 32
// are what they were at MiB 16, and the two together stay under 2 MiB
// (delimiter tokens: ≈ 44 k distinct per 1 MiB reset interval, so 2^16
// 16-byte slots, plus the 0.75 MiB cache and its 13 KiB of scratch).
func TestStateSizeSettles(t *testing.T) {
	if testing.Short() {
		t.Skip("encrypts 32 MiB of text")
	}
	s := dpienc.NewSender(bbcrypto.Block{1}, bbcrypto.Block{2}, dpienc.ProtocolII, 0)
	tk := tokenize.New(tokenize.Delimiter)
	var toks []tokenize.Token
	var out []dpienc.EncryptedToken
	var slots16, cached16 int
	for mib := 0; mib < 32; mib++ {
		if mib == 16 {
			slots16, cached16, _ = s.StateSize()
		}
		text := corpus.SynthesizeTextSeeded(int64(mib), 1<<20)
		for off := 0; off < len(text); off += 16 << 10 {
			s.AccountBytes(16 << 10)
			toks = tk.AppendInto(toks, text[off:off+16<<10])
			out = s.EncryptTokensInto(out, toks)
		}
	}
	slots, cached, bytes := s.StateSize()
	t.Logf("table %d slots, cache %d schedules, %d KiB", slots, cached, bytes>>10)
	if slots != slots16 || cached != cached16 {
		t.Errorf("state still changing size: table %d → %d slots, cache %d → %d schedules between MiB 16 and MiB 32",
			slots16, slots, cached16, cached)
	}
	if bytes > 2<<20 {
		t.Errorf("table and cache retain %d bytes, want at most 2 MiB", bytes)
	}
}
