// Table 2: connection and detection micro-benchmarks comparing vanilla
// HTTPS, the functional-encryption strawman, the searchable strawman and
// BlindBox HTTPS.

package experiments

import (
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"io"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/ruleprep"
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

// Table2Options tunes runtime; the defaults complete in roughly a minute.
type Table2Options struct {
	// SetupKeywords is the larger of the two ruleset sizes the setup cost
	// model is fitted through (the smaller is one keyword); larger rows
	// are extrapolated from the fit.
	SetupKeywords int
	// MinSample is the minimum wall time per measured op.
	MinSample time.Duration
}

// DefaultTable2Options returns the standard configuration.
func DefaultTable2Options() Table2Options {
	return Table2Options{SetupKeywords: 16, MinSample: 20 * time.Millisecond}
}

// Table2 runs all micro-benchmarks.
func Table2(opt Table2Options) ([]Table2Row, error) {
	if opt.SetupKeywords <= 0 {
		opt.SetupKeywords = DefaultTable2Options().SetupKeywords
	}
	if opt.MinSample <= 0 {
		opt.MinSample = DefaultTable2Options().MinSample
	}
	var rows []Table2Row

	k := bbcrypto.RandomBlock()
	kSSL := bbcrypto.RandomBlock()
	var token tokenize.Token
	copy(token.Text[:], "benigntk")

	// --- Client: encrypt 128 bits ------------------------------------
	gcm := bbcrypto.NewGCM(k)
	nonce := make([]byte, gcm.NonceSize())
	block16 := make([]byte, 16)
	sealBuf := make([]byte, 0, 64)
	vanilla128 := timeOp(opt.MinSample, func() {
		sealBuf = gcm.Seal(sealBuf[:0], nonce, block16, nil)
	})

	fe := strawman.NewFEScheme()
	fe128 := timeOp(opt.MinSample/2, func() { _ = fe.Encrypt(token) })

	searchSender := strawman.NewSearchableSender(k)
	search128 := bestTimeOp(5, opt.MinSample, func() { _ = searchSender.EncryptToken(token) })

	bbSender := dpienc.NewSender(k, kSSL, dpienc.ProtocolII, 0)
	i := 0
	bb128 := bestTimeOp(5, opt.MinSample, func() {
		// Vary the offset but reuse token text, as real traffic does; the
		// token-key cache mirrors the paper's AES-NI hot path.
		token.Offset = i
		i++
		_ = bbSender.EncryptToken(token)
	})
	rows = append(rows, Table2Row{
		Name: "Encrypt (128 bits)", Paper: "13ns / 70ms / 2.7µs / 69ns",
		Vanilla:    Table2Cell{Value: vanilla128},
		FE:         Table2Cell{Value: fe128},
		Searchable: Table2Cell{Value: search128},
		BlindBox:   Table2Cell{Value: bb128},
	})

	// --- Client: encrypt a 1500-byte packet --------------------------
	packet := make([]byte, packetBytes)
	// A failed entropy read leaves zeros; the text-like rewrite below makes
	// the benchmark payload equally valid either way.
	_, _ = rand.Read(packet)
	for j := range packet {
		packet[j] = 'a' + packet[j]%26 // text-like
	}
	vanillaPkt := timeOp(opt.MinSample, func() {
		sealBuf = gcm.Seal(sealBuf[:0], nonce, packet, nil)
	})
	keys := bbcrypto.SessionKeys{K: k, KSSL: kSSL}
	pipe := core.NewSenderPipeline(keys, core.Config{Protocol: dpienc.ProtocolII, Mode: tokenize.Window})
	bbPkt := timeOp(opt.MinSample, func() {
		toks, _ := pipe.ProcessText(packet)
		_ = toks
	})
	rows = append(rows, Table2Row{
		Name: "Encrypt (1500 bytes)", Paper: "3µs / 15s / 257µs / 90µs",
		Vanilla:    Table2Cell{Value: vanillaPkt},
		FE:         Table2Cell{Value: fe128 * packetTokens, Extrapolated: true},
		Searchable: Table2Cell{Value: search128 * packetTokens, Extrapolated: true},
		BlindBox:   Table2Cell{Value: bbPkt},
	})

	// --- Client: setup ------------------------------------------------
	setup, err := fitSetup(opt.SetupKeywords)
	if err != nil {
		return nil, err
	}
	vanillaHS := timeOp(opt.MinSample, vanillaHandshakeOp())
	rows = append(rows, Table2Row{
		Name: "Setup (1 keyword)", Paper: "73ms / N/A / N/A / 588ms",
		Vanilla:    Table2Cell{Value: vanillaHS},
		FE:         Table2Cell{NotPossible: true},
		Searchable: Table2Cell{NotPossible: true},
		BlindBox:   Table2Cell{Value: setup.total(1)},
	})
	rows = append(rows, Table2Row{
		Name: "Setup (3K rules)", Paper: "73ms / N/A / N/A / 97s",
		Vanilla:    Table2Cell{Value: vanillaHS},
		FE:         Table2Cell{NotPossible: true},
		Searchable: Table2Cell{NotPossible: true},
		BlindBox:   Table2Cell{Value: setup.total(table2Keywords3K), Extrapolated: true},
	})

	// --- Middlebox: detection ----------------------------------------
	det1 := detectionCosts(k, 1, opt.MinSample)
	det3k := detectionCosts(k, table2Keywords3K, opt.MinSample)
	feKey := fe.KeyGen(token.Text)
	feCt := fe.Encrypt(token)
	feDetect := timeOp(opt.MinSample/2, func() { _ = fe.Test(feCt, feKey) })

	rows = append(rows,
		Table2Row{
			Name: "Detect: 1 rule, 1 token", Paper: "NP / 170ms / 1.9µs / 20ns",
			Vanilla:    Table2Cell{NotPossible: true},
			FE:         Table2Cell{Value: feDetect},
			Searchable: Table2Cell{Value: det1.searchable},
			BlindBox:   Table2Cell{Value: det1.blindbox},
		},
		Table2Row{
			Name: "Detect: 1 rule, 1 packet", Paper: "NP / 36s / 52µs / 5µs",
			Vanilla:    Table2Cell{NotPossible: true},
			FE:         Table2Cell{Value: feDetect * packetTokens, Extrapolated: true},
			Searchable: Table2Cell{Value: det1.searchable * packetTokens, Extrapolated: true},
			BlindBox:   Table2Cell{Value: det1.blindbox * packetTokens, Extrapolated: true},
		},
		Table2Row{
			Name: "Detect: 3K rules, 1 token", Paper: "NP / 8.3min / 5.6ms / 137ns",
			Vanilla:    Table2Cell{NotPossible: true},
			FE:         Table2Cell{Value: feDetect * table2Keywords3K, Extrapolated: true},
			Searchable: Table2Cell{Value: det3k.searchable},
			BlindBox:   Table2Cell{Value: det3k.blindbox},
		},
		Table2Row{
			Name: "Detect: 3K rules, 1 packet", Paper: "NP / 5.7 days / 157ms / 33µs",
			Vanilla:    Table2Cell{NotPossible: true},
			FE:         Table2Cell{Value: feDetect * table2Keywords3K * packetTokens, Extrapolated: true},
			Searchable: Table2Cell{Value: det3k.searchable * packetTokens, Extrapolated: true},
			BlindBox:   Table2Cell{Value: det3k.blindbox * packetTokens, Extrapolated: true},
		},
	)
	return rows, nil
}

// vanillaHandshakeOp approximates a TLS handshake's asymmetric cost: an
// ephemeral X25519 key generation plus one shared-secret computation per
// side (certificate signatures excluded, as in our BlindBox HTTPS).
func vanillaHandshakeOp() func() {
	peer, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		panic(err)
	}
	return func() {
		priv, err := ecdh.X25519().GenerateKey(rand.Reader)
		if err != nil {
			panic(err)
		}
		if _, err := priv.ECDH(peer.PublicKey()); err != nil {
			panic(err)
		}
	}
}

type detCosts struct {
	searchable time.Duration
	blindbox   time.Duration
}

// detectionCosts measures per-token detection against a ruleset with the
// given keyword count, for the searchable strawman (linear scan) and
// BlindBox Detect (tree lookup).
func detectionCosts(k bbcrypto.Block, numKeywords int, minSample time.Duration) detCosts {
	// Build keyword fragments and token keys.
	ruleKeys := make([]dpienc.TokenKey, numKeywords)
	tkeys := make(detect.TokenKeys, numKeywords)
	lines := make([]byte, 0, numKeywords*64)
	for i := 0; i < numKeywords; i++ {
		var frag [tokenize.TokenSize]byte
		copy(frag[:], fmt.Sprintf("kw%06x", i))
		ruleKeys[i] = dpienc.ComputeTokenKey(k, frag)
		tkeys[rules.FragmentBlock(frag)] = ruleKeys[i]
		lines = append(lines, []byte(fmt.Sprintf(
			"alert tcp any any -> any any (content:\"kw%06x\"; sid:%d;)\n", i, i+1))...)
	}
	rs, err := rules.Parse("bench", string(lines))
	if err != nil {
		panic(err)
	}

	searchMB := strawman.NewSearchableMB(ruleKeys)
	searchSender := strawman.NewSearchableSender(k)
	var benign tokenize.Token
	copy(benign.Text[:], "no-match")
	ct := searchSender.EncryptToken(benign)
	searchable := timeOp(minSample, func() { _ = searchMB.Detect(ct) })

	eng := detect.NewEngine(rs, tkeys, detect.Config{
		Mode: tokenize.Window, Protocol: dpienc.ProtocolII, Salt0: 0,
	})
	bbSender := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, 0)
	et := bbSender.EncryptToken(benign)
	blindbox := timeOp(minSample, func() { _ = eng.ProcessToken(et) })
	return detCosts{searchable: searchable, blindbox: blindbox}
}

// measureSetup runs a real obfuscated rule encryption for n keywords (two
// endpoint garblings per keyword, one OT extension per endpoint, circuit
// verification and evaluation) and returns what the whole run took.
func measureSetup(n int) (time.Duration, error) {
	k := bbcrypto.RandomBlock()
	kRG := bbcrypto.RandomBlock()
	krand := bbcrypto.RandomBlock()
	req := ruleprep.Request{}
	for i := 0; i < n; i++ {
		var frag [tokenize.TokenSize]byte
		copy(frag[:], fmt.Sprintf("setup%03d", i))
		blk := rules.FragmentBlock(frag)
		req.Fragments = append(req.Fragments, blk)
		req.Tags = append(req.Tags, bbcrypto.MAC(kRG, blk))
	}
	mb, err := ruleprep.NewMiddlebox(req)
	if err != nil {
		return 0, err
	}
	epS := ruleprep.NewEndpoint(k, kRG, krand)
	epR := ruleprep.NewEndpoint(k, kRG, krand)
	start := time.Now()
	if _, _, err := ruleprep.RunLocal(epS, epR, mb); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// setupFit is rule preparation's cost model, total(n) = Fixed + n·PerKeyword.
// Fixed is what a connection pays whatever its ruleset — the OT base phase
// of each endpoint — so multiplying a small run's average by n would charge
// it once per keyword.
type setupFit struct {
	Fixed, PerKeyword time.Duration
}

func (f setupFit) total(n int) time.Duration {
	return f.Fixed + time.Duration(n)*f.PerKeyword
}

// fitSetup measures setup at 1 and at hi keywords (at least 2) and puts the
// line through the two points, after one untimed run that pays what only a
// process's first preparation pays (building F, curve tables).
func fitSetup(hi int) (setupFit, error) {
	if hi < 2 {
		hi = 2
	}
	if _, err := measureSetup(1); err != nil {
		return setupFit{}, err
	}
	t1, err := measureSetup(1)
	if err != nil {
		return setupFit{}, err
	}
	tHi, err := measureSetup(hi)
	if err != nil {
		return setupFit{}, err
	}
	per := (tHi - t1) / time.Duration(hi-1)
	if per < 0 {
		per = 0 // timer noise on a loaded host; the fixed part then carries it all
	}
	return setupFit{Fixed: t1 - per, PerKeyword: per}, nil
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
