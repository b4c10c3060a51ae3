// Package core is the BlindBox protocol engine: it composes tokenization
// (§3), DPIEnc encryption (§3.1), the receiver-side token validation
// (§3.4) and the glue between signed rulesets, obfuscated rule encryption
// and the detection engine. The transport package runs these pipelines over
// real connections; examples and benchmarks can also drive them directly.
package core

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/bbcrypto"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/obs"
	"repro/internal/ruleprep"
	"repro/internal/rules"
	"repro/internal/tokenize"
)

// Config fixes the per-connection protocol parameters both endpoints and
// the middlebox must agree on.
type Config struct {
	// Protocol selects BlindBox Protocol I, II or III.
	Protocol dpienc.Protocol
	// Mode selects window- or delimiter-based tokenization.
	Mode tokenize.Mode
	// Salt0 is the initial DPIEnc salt.
	Salt0 uint64
}

// DefaultConfig matches the paper's primary evaluation configuration:
// Protocol II with delimiter tokenization.
func DefaultConfig() Config {
	return Config{Protocol: dpienc.ProtocolII, Mode: tokenize.Delimiter}
}

// SaltReset is emitted by the sender pipeline when its counter table
// resets; the new Salt0 must reach the middlebox before later tokens.
type SaltReset struct {
	Salt0 uint64
}

// SenderPipeline turns outgoing plaintext into the encrypted token stream.
// It owns a tokenizer and a DPIEnc sender whose state must see the traffic
// in transmission order, and runs on the calling goroutine.
type SenderPipeline struct {
	cfg Config
	tk  *tokenize.Tokenizer
	enc *dpienc.Sender
	// toks is the tokenizer's output buffer, reused by every chunk.
	toks []tokenize.Token
	// fr and dir are set by Instrument: a nil fr is the untraced hot path,
	// which pays one pointer check per chunk and takes no timestamps.
	fr  *obs.FlowRecorder
	dir string
}

// NewSenderPipeline creates the sender side of one connection direction.
func NewSenderPipeline(keys bbcrypto.SessionKeys, cfg Config) *SenderPipeline {
	return &SenderPipeline{
		cfg: cfg,
		tk:  tokenize.New(cfg.Mode),
		enc: dpienc.NewSender(keys.K, keys.KSSL, cfg.Protocol, cfg.Salt0),
	}
}

// AutoTune does nothing: the pipeline always encrypts on the calling
// goroutine. It stays only because the end-to-end benchmark (benchmark/),
// which is revised separately from the code it measures, still calls it,
// and goes at that benchmark's next revision.
func (p *SenderPipeline) AutoTune() {}

// Instrument makes this pipeline record a tokenize and an encrypt span per
// chunk through fr, labeled with dir and parented under fr's connection
// context. A nil fr leaves the pipeline untraced (the default,
// zero-overhead state).
func (p *SenderPipeline) Instrument(fr *obs.FlowRecorder, dir string) {
	p.fr, p.dir = fr, dir
}

// encrypt is the tail of every Process*Into call: p.toks were tokenized
// starting at t0 (zero when untraced) from `bytes` input bytes. It
// encrypts them into dst's backing array when that is large enough.
func (p *SenderPipeline) encrypt(dst []dpienc.EncryptedToken, t0 time.Time, bytes int) []dpienc.EncryptedToken {
	toks := p.toks
	if p.fr == nil {
		return p.enc.EncryptTokensInto(dst, toks)
	}
	ctx := p.fr.Context()
	p.fr.Span(ctx.Child(), t0, obs.Span{Dir: p.dir, Name: obs.SpanTokenize, Tokens: len(toks), Bytes: bytes})
	t1 := time.Now()
	out := p.enc.EncryptTokensInto(dst, toks)
	p.fr.Span(ctx.Child(), t1, obs.Span{Dir: p.dir, Name: obs.SpanEncrypt, Tokens: len(toks)})
	return out
}

// tokenizeStart is the tokenize span's start time, taken only when the
// pipeline is traced.
func (p *SenderPipeline) tokenizeStart() (t0 time.Time) {
	if p.fr != nil {
		t0 = time.Now()
	}
	return t0
}

// ProcessText tokenizes and encrypts a chunk of inspectable (text) payload,
// returning the encrypted tokens and, if the counter table reset, the salt
// announcement. The reset is checked before encrypting, so an announced
// salt always precedes the tokens that use it.
func (p *SenderPipeline) ProcessText(data []byte) ([]dpienc.EncryptedToken, *SaltReset) {
	return p.ProcessTextInto(nil, data)
}

// ProcessTextInto is ProcessText writing the encrypted tokens into dst's
// backing array when it has capacity, so the result aliases dst — the
// allocation-free form the transport hot path uses with a buffer each
// connection keeps. ProcessText returns memory of its own.
func (p *SenderPipeline) ProcessTextInto(dst []dpienc.EncryptedToken, data []byte) ([]dpienc.EncryptedToken, *SaltReset) {
	reset := p.accountAndMaybeReset(len(data))
	t0 := p.tokenizeStart()
	p.toks = p.tk.AppendInto(p.toks, data)
	return p.encrypt(dst, t0, len(data)), reset
}

// ProcessBinaryInto accounts for payload the IDS does not inspect (images,
// video), reusing dst's backing array like ProcessTextInto: no new tokens
// are formed, but stream offsets advance and buffered text is finalized
// (possibly emitting its trailing tokens).
func (p *SenderPipeline) ProcessBinaryInto(dst []dpienc.EncryptedToken, n int) ([]dpienc.EncryptedToken, *SaltReset) {
	reset := p.accountAndMaybeReset(n)
	t0 := p.tokenizeStart()
	p.toks = p.tk.SkipInto(p.toks, n)
	return p.encrypt(dst, t0, n), reset
}

// Flush finalizes the stream, returning the trailing tokens.
func (p *SenderPipeline) Flush() []dpienc.EncryptedToken {
	return p.FlushInto(nil)
}

// FlushInto is Flush reusing dst's backing array.
func (p *SenderPipeline) FlushInto(dst []dpienc.EncryptedToken) []dpienc.EncryptedToken {
	t0 := p.tokenizeStart()
	p.toks = p.tk.FlushInto(p.toks)
	return p.encrypt(dst, t0, 0)
}

func (p *SenderPipeline) accountAndMaybeReset(n int) *SaltReset {
	if salt0, reset := p.enc.AccountBytes(n); reset {
		return &SaltReset{Salt0: salt0}
	}
	return nil
}

// Salt0 returns the current initial salt.
func (p *SenderPipeline) Salt0() uint64 { return p.enc.Salt0() }

// SetResetInterval overrides the counter-reset interval P.
func (p *SenderPipeline) SetResetInterval(n int) { p.enc.SetResetInterval(n) }

// ErrTokenMismatch is returned by the validator when the received token
// stream differs from what an honest sender would have produced — evidence
// that the sending endpoint tried to evade detection (§3.4).
var ErrTokenMismatch = errors.New("core: encrypted token stream does not match payload")

// Validator is the receiver-side check of §3.4: it re-tokenizes and
// re-encrypts the decrypted SSL payload and compares the result against the
// encrypted tokens forwarded by the middlebox.
type Validator struct {
	pipe *SenderPipeline
	// pending holds the received tokens; those before head have been
	// consumed by recomputation. want is the recomputation buffer. Both are
	// reused by every record.
	pending []dpienc.EncryptedToken
	head    int
	want    []dpienc.EncryptedToken
}

// NewValidator creates a validator; it must be given the same session keys
// and config as the sender it checks.
func NewValidator(keys bbcrypto.SessionKeys, cfg Config) *Validator {
	return &Validator{pipe: NewSenderPipeline(keys, cfg)}
}

// ReceiveTokens buffers tokens forwarded by the middlebox. It copies them,
// so the caller may reuse toks.
func (v *Validator) ReceiveTokens(toks []dpienc.EncryptedToken) {
	if v.head > 0 {
		// Slide the unconsumed tokens (normally none: a token record is
		// consumed by the data record behind it) to the front, so the
		// buffer is reused instead of growing with the stream.
		v.pending = v.pending[:copy(v.pending, v.pending[v.head:])]
		v.head = 0
	}
	v.pending = append(v.pending, toks...)
}

// ValidateText recomputes the tokens for a decrypted text chunk and checks
// them against the buffered received tokens.
func (v *Validator) ValidateText(data []byte) error {
	v.want, _ = v.pipe.ProcessTextInto(v.want, data)
	return v.consume(v.want)
}

// ValidateBinary accounts for uninspected payload.
func (v *Validator) ValidateBinary(n int) error {
	v.want, _ = v.pipe.ProcessBinaryInto(v.want, n)
	return v.consume(v.want)
}

// Salt0 returns the initial salt the recomputation has reached: it changes
// exactly when the sender's counter table reset, by at least 1.
func (v *Validator) Salt0() uint64 { return v.pipe.Salt0() }

// Finish checks the trailing tokens and that no received tokens remain
// unexplained.
func (v *Validator) Finish() error {
	if err := v.consume(v.pipe.FlushInto(v.want)); err != nil {
		return err
	}
	if surplus := len(v.pending) - v.head; surplus != 0 {
		return fmt.Errorf("%w: %d surplus tokens", ErrTokenMismatch, surplus)
	}
	return nil
}

func (v *Validator) consume(want []dpienc.EncryptedToken) error {
	pending := v.pending[v.head:]
	if len(pending) < len(want) {
		return fmt.Errorf("%w: missing %d tokens", ErrTokenMismatch, len(want)-len(pending))
	}
	// An honest stream — every stream but an attacker's last — needs only
	// the verdict, so the batch is compared by OR-ing together the XOR of
	// every word of every token: no branch and no early exit on ciphertext
	// bytes. Only a batch that differs somewhere is walked again, to name
	// the token.
	var diff uint64
	for i := range want {
		got, w := &pending[i], &want[i]
		diff |= uint64(binary.LittleEndian.Uint32(got.C1[:4])^binary.LittleEndian.Uint32(w.C1[:4])) |
			uint64(got.C1[4]^w.C1[4]) |
			(binary.LittleEndian.Uint64(got.C2[:8]) ^ binary.LittleEndian.Uint64(w.C2[:8])) |
			(binary.LittleEndian.Uint64(got.C2[8:]) ^ binary.LittleEndian.Uint64(w.C2[8:])) |
			uint64(got.Offset^w.Offset)
	}
	if diff == 0 {
		v.head += len(want)
		return nil
	}
	for i := range want {
		got, w := &pending[i], &want[i]
		if subtle.ConstantTimeCompare(got.C1[:], w.C1[:]) != 1 ||
			got.Offset != w.Offset ||
			subtle.ConstantTimeCompare(got.C2[:], w.C2[:]) != 1 {
			return fmt.Errorf("%w: token at stream offset %d", ErrTokenMismatch, w.Offset)
		}
	}
	return ErrTokenMismatch
}

// BuildRequest converts a signed ruleset into the obfuscated-rule-
// encryption request the middlebox runs against the endpoints: the
// distinct fragments for the tokenization mode, paired with RG's tags.
// Fragments without a tag (never issued by RG) are omitted — the circuit
// would reject them anyway.
func BuildRequest(sr *rules.SignedRuleset, mode tokenize.Mode) ruleprep.Request {
	var req ruleprep.Request
	for _, f := range sr.Ruleset.Fragments(mode) {
		blk := rules.FragmentBlock(f)
		tag, ok := sr.Tags[blk]
		if !ok {
			continue
		}
		req.Fragments = append(req.Fragments, blk)
		req.Tags = append(req.Tags, tag)
	}
	return req
}

// TokenKeysFromPrep assembles the detection key map from a rule-preparation
// result (nil entries — unauthorized fragments — are skipped).
func TokenKeysFromPrep(req ruleprep.Request, keys []*dpienc.TokenKey) detect.TokenKeys {
	out := make(detect.TokenKeys, len(keys))
	for i, k := range keys {
		if k != nil {
			out[req.Fragments[i]] = *k
		}
	}
	return out
}

// DirectTokenKeys computes the token keys directly from the session key —
// the trusted-setup shortcut used by benchmarks and tests that exercise
// detection without paying for garbling. Real connections use the
// rule-preparation exchange instead.
func DirectTokenKeys(k bbcrypto.Block, rs *rules.Ruleset, mode tokenize.Mode) detect.TokenKeys {
	keys := make(detect.TokenKeys)
	// AES_k(fragment) as dpienc.ComputeTokenKey computes it, with k
	// expanded once for the whole ruleset instead of once per fragment.
	var ks bbcrypto.Schedule
	ks.Expand(&k)
	for _, f := range rs.Fragments(mode) {
		padded := rules.FragmentBlock(f)
		var tk dpienc.TokenKey
		ks.Encrypt(&tk, &padded)
		keys[padded] = tk
	}
	return keys
}

// NewDetectEngine builds the middlebox detection engine for a connection.
// Its last parameter is ignored: it stays only because the end-to-end
// benchmark (benchmark/), which is revised separately from the code it
// measures, still passes nil there, and goes at that benchmark's next
// revision.
func NewDetectEngine(rs *rules.Ruleset, keys detect.TokenKeys, cfg Config, _ *detect.TreeIndex) *detect.Engine {
	return detect.NewEngine(rs, keys, detect.Config{
		Mode:     cfg.Mode,
		Protocol: cfg.Protocol,
		Salt0:    cfg.Salt0,
	})
}

// Scan is the offline reference for one direction of a connection. It
// writes payload at the absolute offsets cuts (ascending, exclusive of 0
// and len(payload); nil is one write) through a SenderPipeline and scans
// each write's tokens with one detection engine, keyed directly under a
// fixed session key. A salt reset reaches the engine before that write's
// tokens, as Conn.Write's RecSalt record reaches the middlebox. It returns
// the detection events in stream order and the number of tokens scanned.
func Scan(rs *rules.Ruleset, cfg Config, payload []byte, cuts []int) ([]detect.Event, int) {
	keys := bbcrypto.DeriveSessionKeys([]byte("core.Scan reference"))
	pipe := NewSenderPipeline(keys, cfg)
	eng := NewDetectEngine(rs, DirectTokenKeys(keys.K, rs, cfg.Mode), cfg, nil)
	var (
		evs    []detect.Event
		toks   []dpienc.EncryptedToken
		reset  *SaltReset
		tokens int
		prev   int
	)
	// The full slice expression makes append copy, leaving cuts unmodified.
	for _, cut := range append(cuts[:len(cuts):len(cuts)], len(payload)) {
		toks, reset = pipe.ProcessTextInto(toks[:0], payload[prev:cut])
		if reset != nil {
			eng.Reset(reset.Salt0)
		}
		evs = eng.ScanBatch(toks, evs)
		tokens += len(toks)
		prev = cut
	}
	toks = pipe.FlushInto(toks[:0])
	return eng.ScanBatch(toks, evs), tokens + len(toks)
}
