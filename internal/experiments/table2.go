// Table 2: connection and detection micro-benchmarks comparing vanilla
// HTTPS, the functional-encryption strawman, the searchable strawman and
// BlindBox HTTPS.

package experiments

import (
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/rules"
	"repro/internal/strawman"
	"repro/internal/tokenize"
)

// packetBytes is the packet size of the paper's per-packet rows.
const packetBytes = 1500

// packetTokens is the token count of one packet under window tokenization
// (one token per byte offset).
const packetTokens = packetBytes - tokenize.TokenSize + 1

// table2Keywords3K is the keyword count of a "3K rules" IDS: the paper's
// typical 3000-rule set carries 9–10k keywords.
const table2Keywords3K = 9900

// Table2Cell is one measurement; Extrapolated marks values computed as
// per-op × count rather than run at full scale (the full-scale FE runs
// would take days, exactly as the paper notes).
type Table2Cell struct {
	Value        time.Duration
	NotPossible  bool
	Extrapolated bool
}

// String renders the cell as the paper prints it: a duration, "NP" for
// not-possible, with a trailing * on extrapolated values.
func (c Table2Cell) String() string {
	if c.NotPossible {
		return "NP"
	}
	s := fmtDuration(c.Value)
	if c.Extrapolated {
		s += "*"
	}
	return s
}

// Table2Row is one benchmark line across the four systems.
type Table2Row struct {
	Name                              string
	Vanilla, FE, Searchable, BlindBox Table2Cell
	Paper                             string // the paper's row for comparison
}

// Table2 runs all micro-benchmarks.
func Table2() ([]Table2Row, error) {
	res, err := run(table2Cells())
	if err != nil {
		return nil, err
	}
	setup, err := theSetupFit()
	if err != nil {
		return nil, err
	}
	cell := func(name string) Table2Cell { return Table2Cell{Value: perOp(res[name])} }
	times := func(name string, n int) Table2Cell {
		return Table2Cell{Value: perOp(res[name]) * time.Duration(n), Extrapolated: true}
	}
	np, handshake := Table2Cell{NotPossible: true}, cell("handshake/vanilla")
	return []Table2Row{
		{Name: "Encrypt (128 bits)", Paper: "13ns / 70ms / 2.7µs / 69ns",
			Vanilla: cell("encrypt-token/vanilla"), FE: cell("encrypt-token/fe"),
			Searchable: cell("encrypt-token/searchable"), BlindBox: cell("encrypt-token/blindbox")},
		{Name: "Encrypt (1500 bytes)", Paper: "3µs / 15s / 257µs / 90µs",
			Vanilla: cell("encrypt-packet/vanilla"), FE: times("encrypt-token/fe", packetTokens),
			Searchable: times("encrypt-token/searchable", packetTokens), BlindBox: cell("encrypt-packet/blindbox")},
		{Name: "Setup (1 keyword)", Paper: "73ms / N/A / N/A / 588ms",
			Vanilla: handshake, FE: np, Searchable: np, BlindBox: Table2Cell{Value: setup.total(1)}},
		{Name: "Setup (3K rules)", Paper: "73ms / N/A / N/A / 97s",
			Vanilla: handshake, FE: np, Searchable: np,
			BlindBox: Table2Cell{Value: setup.total(table2Keywords3K), Extrapolated: true}},
		{Name: "Detect: 1 rule, 1 token", Paper: "NP / 170ms / 1.9µs / 20ns",
			Vanilla: np, FE: cell("detect/fe"),
			Searchable: cell("detect/searchable-1"), BlindBox: cell("detect/blindbox-1")},
		{Name: "Detect: 1 rule, 1 packet", Paper: "NP / 36s / 52µs / 5µs",
			Vanilla: np, FE: times("detect/fe", packetTokens),
			Searchable: times("detect/searchable-1", packetTokens), BlindBox: times("detect/blindbox-1", packetTokens)},
		{Name: "Detect: 3K rules, 1 token", Paper: "NP / 8.3min / 5.6ms / 137ns",
			Vanilla: np, FE: times("detect/fe", table2Keywords3K),
			Searchable: cell("detect/searchable-9900"), BlindBox: cell("detect/blindbox-9900")},
		{Name: "Detect: 3K rules, 1 packet", Paper: "NP / 5.7 days / 157ms / 33µs",
			Vanilla: np, FE: times("detect/fe", table2Keywords3K*packetTokens),
			Searchable: times("detect/searchable-9900", packetTokens), BlindBox: times("detect/blindbox-9900", packetTokens)},
	}, nil
}

// Table 2's keys; every cell times the same work under any key.
var table2K, table2KSSL = bbcrypto.Block{1}, bbcrypto.Block{2}

// BenchToken is the token Table 2's cells encrypt and detect; it matches
// none of their keywords.
func BenchToken() tokenize.Token {
	var t tokenize.Token
	copy(t.Text[:], "benigntk")
	return t
}

// table2Cells are Table 2's measured cells; the extrapolated ones are
// per-op × count of these.
func table2Cells() []Cell {
	// The packet is random letters drawn from Seed, so every window token
	// in it is a first occurrence, and both packet cells seal this one.
	packet := make([]byte, packetBytes)
	rng := newRand()
	for i := range packet {
		packet[i] = 'a' + byte(rng.Intn(26))
	}
	cells := []Cell{
		{"encrypt-token/vanilla", func(b *testing.B) { sealLoop(b, make([]byte, 16)) }},
		{"encrypt-token/fe", func(b *testing.B) {
			fe, t := strawman.NewFEScheme(), BenchToken()
			for i := 0; i < b.N; i++ {
				fe.Encrypt(t)
			}
		}},
		{"encrypt-token/searchable", func(b *testing.B) {
			s, t := strawman.NewSearchableSender(table2K), BenchToken()
			for i := 0; i < b.N; i++ {
				s.EncryptToken(t)
			}
		}},
		{"encrypt-token/blindbox", func(b *testing.B) {
			// Vary the offset but reuse the token text, as real traffic
			// does; the token-key cache mirrors the paper's AES-NI hot path.
			s, t := dpienc.NewSender(table2K, table2KSSL, dpienc.ProtocolII, 0), BenchToken()
			for i := 0; i < b.N; i++ {
				t.Offset = i
				s.EncryptToken(t)
			}
		}},
		{"encrypt-packet/vanilla", func(b *testing.B) { sealLoop(b, packet) }},
		{"encrypt-packet/blindbox", func(b *testing.B) {
			keys := bbcrypto.SessionKeys{K: table2K, KSSL: table2KSSL}
			pipe := core.NewSenderPipeline(keys, core.Config{Protocol: dpienc.ProtocolII, Mode: tokenize.Window})
			b.SetBytes(packetBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pipe.ProcessText(packet)
			}
		}},
		{"handshake/vanilla", vanillaHandshake},
		{"detect/fe", func(b *testing.B) {
			fe := strawman.NewFEScheme()
			key, ct := fe.KeyGen(BenchToken().Text), fe.Encrypt(BenchToken())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fe.Test(ct, key)
			}
		}},
	}
	// Per-token detection for the searchable strawman (a linear scan) and
	// BlindBox Detect (a tree lookup), at one keyword and at 3K rules.
	for _, n := range []int{1, table2Keywords3K} {
		cells = append(cells,
			Cell{fmt.Sprintf("detect/searchable-%d", n), func(b *testing.B) {
				_, byFragment, err := keywordRules(n)
				if err != nil {
					b.Fatal(err)
				}
				var keys []dpienc.TokenKey
				for _, key := range byFragment {
					keys = append(keys, key)
				}
				mb := strawman.NewSearchableMB(keys)
				ct := strawman.NewSearchableSender(detectKey).EncryptToken(BenchToken())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mb.Detect(ct)
				}
			}},
			Cell{fmt.Sprintf("detect/blindbox-%d", n), func(b *testing.B) {
				eng, et, err := KeywordEngine(n)
				if err != nil {
					b.Fatal(err)
				}
				batch := []dpienc.EncryptedToken{et}
				var dst []detect.Event
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = eng.ScanBatch(batch, dst[:0])
				}
			}},
		)
	}
	return cells
}

// sealLoop times AES-GCM over pt: vanilla HTTPS's cost for the same bytes.
func sealLoop(b *testing.B, pt []byte) {
	gcm := bbcrypto.NewGCM(table2K)
	nonce := make([]byte, gcm.NonceSize())
	buf := make([]byte, 0, len(pt)+gcm.Overhead())
	b.SetBytes(int64(len(pt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = gcm.Seal(buf[:0], nonce, pt, nil)
	}
}

// vanillaHandshake approximates a TLS handshake's asymmetric cost: an
// ephemeral X25519 key generation plus one shared-secret computation per
// side (certificate signatures excluded, as in our BlindBox HTTPS).
func vanillaHandshake(b *testing.B) {
	peer, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		priv, err := ecdh.X25519().GenerateKey(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := priv.ECDH(peer.PublicKey()); err != nil {
			b.Fatal(err)
		}
	}
}

// detectKey is the key Table 2's keywords and detected token are under.
var detectKey = bbcrypto.Block{7}

// keywordRules is n synthetic keywords, one rule each (Table 2's "1 rule"
// and "3K rules" sets), and their window-mode token keys under detectKey.
func keywordRules(n int) (*rules.Ruleset, detect.TokenKeys, error) {
	lines := make([]byte, 0, n*64)
	for i := 0; i < n; i++ {
		lines = fmt.Appendf(lines, "alert tcp any any -> any any (content:\"kw%06x\"; sid:%d;)\n", i, i+1)
	}
	rs, err := rules.Parse("bench", string(lines))
	if err != nil {
		return nil, nil, err
	}
	return rs, core.DirectTokenKeys(detectKey, rs, tokenize.Window), nil
}

// KeywordEngine is window-mode BlindBox Detect over keywordRules(n), and
// BenchToken encrypted for it, which matches none of the keywords.
func KeywordEngine(n int) (*detect.Engine, dpienc.EncryptedToken, error) {
	rs, keys, err := keywordRules(n)
	if err != nil {
		return nil, dpienc.EncryptedToken{}, err
	}
	eng := detect.NewEngine(rs, keys, detect.Config{Mode: tokenize.Window, Protocol: dpienc.ProtocolII})
	sender := dpienc.NewSender(detectKey, bbcrypto.Block{}, dpienc.ProtocolII, 0)
	return eng, sender.EncryptToken(BenchToken()), nil
}

// KeywordStream is size bytes of seeded random letters and spaces with one
// of keywordRules(n)'s keywords planted every ~256 bytes, window-tokenized
// and encrypted for a fresh KeywordEngine(n): scanning it once visits the
// table's slots as traffic does and raises a match at every plant.
func KeywordStream(n, size int) []dpienc.EncryptedToken {
	rng := newRand()
	text := make([]byte, 0, size+tokenize.TokenSize)
	for len(text) < size {
		if rng.Intn(256) == 0 {
			text = fmt.Appendf(text, "kw%06x", rng.Intn(n))
		} else {
			text = append(text, "abcdefghijklmnopqrstuvwxyz "[rng.Intn(27)])
		}
	}
	sender := dpienc.NewSender(detectKey, bbcrypto.Block{}, dpienc.ProtocolII, 0)
	return sender.EncryptTokensInto(nil, tokenize.TokenizeAll(tokenize.Window, text))
}

// PrintTable2 renders the measurements alongside the paper's Table 2.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: micro-benchmarks (* = extrapolated from per-op cost, as full runs would take days)")
	t := newTable(w)
	t.row("Benchmark", "Vanilla HTTPS", "FE strawman", "Searchable", "BlindBox", "paper (V/FE/S/BB)")
	for _, r := range rows {
		t.row(r.Name, r.Vanilla.String(), r.FE.String(), r.Searchable.String(), r.BlindBox.String(), r.Paper)
	}
	t.flush()
}
