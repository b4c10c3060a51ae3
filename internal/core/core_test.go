package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/ruleprep"
	"repro/internal/rules"
	"repro/internal/tokenize"
)

func sessionKeys() bbcrypto.SessionKeys {
	return bbcrypto.DeriveSessionKeys([]byte("core test master secret"))
}

func mustRules(t *testing.T, lines ...string) *rules.Ruleset {
	t.Helper()
	rs, err := rules.Parse("test", strings.Join(lines, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestSenderToDetectEndToEnd(t *testing.T) {
	keys := sessionKeys()
	rs := mustRules(t, `alert tcp any any -> any any (content:"attackkw"; sid:1;)`)
	for _, cfg := range []Config{
		{Protocol: dpienc.ProtocolI, Mode: tokenize.Window},
		{Protocol: dpienc.ProtocolII, Mode: tokenize.Delimiter},
		{Protocol: dpienc.ProtocolIII, Mode: tokenize.Window},
	} {
		sp := NewSenderPipeline(keys, cfg)
		eng := NewDetectEngine(rs, DirectTokenKeys(keys.K, rs, cfg.Mode), cfg, nil)
		var fired bool
		feed := func(toks []dpienc.EncryptedToken) {
			for _, et := range toks {
				for _, ev := range eng.ProcessToken(et) {
					if ev.Kind == detect.RuleMatch {
						fired = true
						if cfg.Protocol == dpienc.ProtocolIII && ev.SSLKey != keys.KSSL {
							t.Fatalf("cfg %+v: recovered wrong kSSL", cfg)
						}
					}
				}
			}
		}
		toks, _ := sp.ProcessText([]byte("benign prefix attackkw benign suffix"))
		feed(toks)
		feed(sp.Flush())
		if !fired {
			t.Fatalf("cfg %+v: rule did not fire", cfg)
		}
	}
}

func TestBinarySkipKeepsSync(t *testing.T) {
	keys := sessionKeys()
	rs := mustRules(t, `alert tcp any any -> any any (content:"attackkw"; sid:1;)`)
	cfg := DefaultConfig()
	sp := NewSenderPipeline(keys, cfg)
	eng := NewDetectEngine(rs, DirectTokenKeys(keys.K, rs, cfg.Mode), cfg, nil)
	fired := false
	run := func(toks []dpienc.EncryptedToken) {
		for _, et := range toks {
			for _, ev := range eng.ProcessToken(et) {
				if ev.Kind == detect.RuleMatch {
					fired = true
				}
			}
		}
	}
	toks, _ := sp.ProcessText([]byte("header text "))
	run(toks)
	toks, _ = sp.ProcessBinaryInto(nil, 1<<16) // a big image
	run(toks)
	toks, _ = sp.ProcessText([]byte("trailer with attackkw inside"))
	run(toks)
	run(sp.Flush())
	if !fired {
		t.Fatal("rule did not fire after binary skip")
	}
}

func TestValidatorAcceptsHonestSender(t *testing.T) {
	keys := sessionKeys()
	cfg := DefaultConfig()
	sp := NewSenderPipeline(keys, cfg)
	v := NewValidator(keys, cfg)

	chunks := [][]byte{
		[]byte("GET /index.html HTTP/1.1\r\n"),
		[]byte("Host: example.com\r\n\r\n"),
		[]byte("hello body with words"),
	}
	for _, c := range chunks {
		toks, _ := sp.ProcessText(c)
		v.ReceiveTokens(toks)
		if err := v.ValidateText(c); err != nil {
			t.Fatal(err)
		}
	}
	v.ReceiveTokens(sp.Flush())
	if err := v.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestValidatorCatchesOmittedTokens(t *testing.T) {
	keys := sessionKeys()
	cfg := DefaultConfig()
	sp := NewSenderPipeline(keys, cfg)
	v := NewValidator(keys, cfg)
	payload := []byte("a sender hiding attackkw by omitting tokens")
	toks, _ := sp.ProcessText(payload)
	if len(toks) < 2 {
		t.Fatal("test payload produced too few tokens")
	}
	v.ReceiveTokens(toks[:len(toks)-3]) // cheat: drop the tail
	err := v.ValidateText(payload)
	if err == nil {
		err = v.Finish()
	}
	if !errors.Is(err, ErrTokenMismatch) {
		t.Fatalf("omission not caught: %v", err)
	}
}

func TestValidatorCatchesForgedTokens(t *testing.T) {
	keys := sessionKeys()
	cfg := DefaultConfig()
	sp := NewSenderPipeline(keys, cfg)
	v := NewValidator(keys, cfg)
	payload := []byte("payload with several words to tokenize properly")
	toks, _ := sp.ProcessText(payload)
	toks[0].C1[0] ^= 0xFF // forge
	v.ReceiveTokens(toks)
	if err := v.ValidateText(payload); !errors.Is(err, ErrTokenMismatch) {
		t.Fatalf("forgery not caught: %v", err)
	}
}

func TestValidatorCatchesSurplusTokens(t *testing.T) {
	keys := sessionKeys()
	cfg := DefaultConfig()
	sp := NewSenderPipeline(keys, cfg)
	v := NewValidator(keys, cfg)
	payload := []byte("plain words here")
	toks, _ := sp.ProcessText(payload)
	v.ReceiveTokens(toks)
	v.ReceiveTokens([]dpienc.EncryptedToken{{Offset: 9999}}) // junk extra
	if err := v.ValidateText(payload); err != nil {
		// surplus may also surface here depending on chunking; accept.
		if !errors.Is(err, ErrTokenMismatch) {
			t.Fatal(err)
		}
		return
	}
	v.ReceiveTokens(sp.Flush())
	if err := v.Finish(); !errors.Is(err, ErrTokenMismatch) {
		t.Fatalf("surplus not caught: %v", err)
	}
}

func TestSaltResetAnnouncedAndApplied(t *testing.T) {
	keys := sessionKeys()
	cfg := Config{Protocol: dpienc.ProtocolII, Mode: tokenize.Window}
	sp := NewSenderPipeline(keys, cfg)
	sp.SetResetInterval(64)
	rs := mustRules(t, `alert tcp any any -> any any (content:"attackkw"; sid:1;)`)
	eng := NewDetectEngine(rs, DirectTokenKeys(keys.K, rs, cfg.Mode), cfg, nil)

	matches := 0
	feed := func(toks []dpienc.EncryptedToken, reset *SaltReset) {
		if reset != nil {
			eng.Reset(reset.Salt0)
		}
		for _, et := range toks {
			for _, ev := range eng.ProcessToken(et) {
				if ev.Kind == detect.KeywordMatch {
					matches++
				}
			}
		}
	}
	for i := 0; i < 10; i++ {
		toks, reset := sp.ProcessText([]byte("some filler text then attackkw and padding padding"))
		feed(toks, reset)
	}
	feed(sp.Flush(), nil)
	if matches != 10 {
		t.Fatalf("matches across salt resets = %d, want 10", matches)
	}
}

func TestBuildRequestAndPrepGlue(t *testing.T) {
	g, err := rules.NewGenerator("RG")
	if err != nil {
		t.Fatal(err)
	}
	rs := mustRules(t, `alert tcp any any -> any any (content:"attackkw"; sid:1;)`)
	sr := g.Sign(rs)
	req := BuildRequest(sr, tokenize.Window)
	if len(req.Fragments) != 1 {
		t.Fatalf("fragments = %d", len(req.Fragments))
	}

	keys := sessionKeys()
	epS := ruleprep.NewEndpoint(keys.K, g.TagKey(), keys.KRand)
	epR := ruleprep.NewEndpoint(keys.K, g.TagKey(), keys.KRand)
	mb, err := ruleprep.NewMiddlebox(req)
	if err != nil {
		t.Fatal(err)
	}
	prepped, _, err := ruleprep.RunLocal(epS, epR, mb)
	if err != nil {
		t.Fatal(err)
	}
	tkeys := TokenKeysFromPrep(req, prepped)
	direct := DirectTokenKeys(keys.K, rs, tokenize.Window)
	if len(tkeys) != len(direct) {
		t.Fatalf("prep keys = %d, direct keys = %d", len(tkeys), len(direct))
	}
	for frag, k := range direct {
		if tkeys[frag] != k {
			t.Fatalf("prep key for %x differs from direct computation", frag)
		}
	}
}
