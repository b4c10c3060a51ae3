package detect

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bbcrypto"
	"repro/internal/dpienc"
	"repro/internal/rules"
	"repro/internal/tokenize"
)

// keysFor derives the token keys a middlebox would obtain via obfuscated
// rule encryption — in tests we play both roles and compute them directly.
func keysFor(k bbcrypto.Block, rs *rules.Ruleset, mode tokenize.Mode) TokenKeys {
	keys := make(TokenKeys)
	for _, f := range rs.Fragments(mode) {
		var t [tokenize.TokenSize]byte
		copy(t[:], f[:])
		keys[rules.FragmentBlock(f)] = dpienc.ComputeTokenKey(k, t)
	}
	return keys
}

// runTraffic tokenizes, encrypts and detects over one payload, returning
// all events.
func runTraffic(t *testing.T, rs *rules.Ruleset, mode tokenize.Mode, proto dpienc.Protocol, payload []byte) ([]Event, bbcrypto.Block) {
	t.Helper()
	k := bbcrypto.RandomBlock()
	kSSL := bbcrypto.RandomBlock()
	sender := dpienc.NewSender(k, kSSL, proto, 1000)
	eng := NewEngine(rs, keysFor(k, rs, mode), Config{
		Mode: mode, Protocol: proto, Salt0: sender.Salt0(),
	})
	var events []Event
	for _, tok := range tokenize.TokenizeAll(mode, payload) {
		events = eng.ScanBatch([]dpienc.EncryptedToken{sender.EncryptToken(tok)}, events)
	}
	return events, kSSL
}

func mustParse(t *testing.T, lines ...string) *rules.Ruleset {
	t.Helper()
	rs, err := rules.Parse("test", strings.Join(lines, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func ruleMatches(events []Event) []int {
	var sids []int
	for _, ev := range events {
		if ev.Kind == RuleMatch {
			sids = append(sids, ev.Rule.SID)
		}
	}
	return sids
}

func TestProtocolIBasicDetection(t *testing.T) {
	rs := mustParse(t, `alert tcp any any -> any any (msg:"wm"; content:"WATERMARK-CONF-77"; sid:1;)`)
	for _, mode := range []tokenize.Mode{tokenize.Window, tokenize.Delimiter} {
		payload := []byte("some document text WATERMARK-CONF-77 more text")
		events, _ := runTraffic(t, rs, mode, dpienc.ProtocolI, payload)
		if got := ruleMatches(events); len(got) != 1 || got[0] != 1 {
			t.Fatalf("mode %v: rule matches = %v, want [1]", mode, got)
		}
	}
}

func TestNoFalsePositiveOnCleanTraffic(t *testing.T) {
	rs := mustParse(t, `alert tcp any any -> any any (content:"WATERMARK-CONF-77"; sid:1;)`)
	for _, mode := range []tokenize.Mode{tokenize.Window, tokenize.Delimiter} {
		payload := []byte("completely innocent content with nothing suspicious at all, honest")
		events, _ := runTraffic(t, rs, mode, dpienc.ProtocolI, payload)
		if len(events) != 0 {
			t.Fatalf("mode %v: got %d events on clean traffic", mode, len(events))
		}
	}
}

func TestRepeatedKeywordDetectedEveryTime(t *testing.T) {
	// The counter-salt machinery must keep sender and MB in sync across
	// repeated occurrences of the same keyword.
	rs := mustParse(t, `alert tcp any any -> any any (content:"evilword"; sid:1;)`)
	payload := []byte(strings.Repeat("evilword filler ", 10))
	events, _ := runTraffic(t, rs, tokenize.Window, dpienc.ProtocolII, payload)
	kwMatches := 0
	for _, ev := range events {
		if ev.Kind == KeywordMatch {
			kwMatches++
		}
	}
	if kwMatches != 10 {
		t.Fatalf("got %d keyword matches, want 10", kwMatches)
	}
}

func TestKeywordMatchReportsOffset(t *testing.T) {
	rs := mustParse(t, `alert tcp any any -> any any (content:"evilword"; sid:1;)`)
	payload := []byte("0123456789 evilword tail")
	events, _ := runTraffic(t, rs, tokenize.Window, dpienc.ProtocolI, payload)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	if events[0].Offset != 11 {
		t.Fatalf("match offset = %d, want 11", events[0].Offset)
	}
}

func TestLongKeywordRequiresAllFragments(t *testing.T) {
	// "maliciouslylong!" splits into two window fragments; traffic
	// containing only the first 8 bytes must not fire.
	rs := mustParse(t, `alert tcp any any -> any any (content:"maliciouslylong!"; sid:1;)`)
	partial := []byte("xx maliciou yy and unrelated data")
	events, _ := runTraffic(t, rs, tokenize.Window, dpienc.ProtocolI, partial)
	if len(ruleMatches(events)) != 0 {
		t.Fatal("rule fired on a fragment-only occurrence")
	}
	full := []byte("xx maliciouslylong! yy")
	events, _ = runTraffic(t, rs, tokenize.Window, dpienc.ProtocolI, full)
	if len(ruleMatches(events)) != 1 {
		t.Fatal("rule did not fire on the full keyword")
	}
}

func TestFragmentsAtInconsistentOffsetsDoNotMatch(t *testing.T) {
	// Both fragments of the keyword occur, but far apart: candidate starts
	// disagree, so no keyword match may fire.
	rs := mustParse(t, `alert tcp any any -> any any (content:"abcdefgh12345678"; sid:1;)`)
	payload := []byte("abcdefgh ............................ 12345678")
	events, _ := runTraffic(t, rs, tokenize.Window, dpienc.ProtocolI, payload)
	if len(events) != 0 {
		t.Fatalf("got %d events for torn fragments", len(events))
	}
}

func TestProtocolIIMultiKeywordRule(t *testing.T) {
	rs := mustParse(t, `alert tcp any any -> any any (content:"keyword1"; content:"keyword2"; sid:5;)`)
	one := []byte("has keyword1 only")
	events, _ := runTraffic(t, rs, tokenize.Window, dpienc.ProtocolII, one)
	if len(ruleMatches(events)) != 0 {
		t.Fatal("rule fired with one of two keywords")
	}
	both := []byte("has keyword1 and keyword2 here")
	events, _ = runTraffic(t, rs, tokenize.Window, dpienc.ProtocolII, both)
	if len(ruleMatches(events)) != 1 {
		t.Fatal("rule did not fire with both keywords")
	}
}

func TestProtocolIIOffsetConstraints(t *testing.T) {
	// offset:4 depth:12 => keyword must start in [4, 4+12-len].
	rs := mustParse(t, `alert tcp any any -> any any (content:"needle88"; offset:4; depth:12; sid:6;)`)
	good := []byte("xxx needle88 and more")            // starts at 4
	bad := []byte("needle88 starts at offset zero oh") // starts at 0
	events, _ := runTraffic(t, rs, tokenize.Window, dpienc.ProtocolII, good)
	if len(ruleMatches(events)) != 1 {
		t.Fatal("in-range offset did not fire")
	}
	events, _ = runTraffic(t, rs, tokenize.Window, dpienc.ProtocolII, bad)
	if len(ruleMatches(events)) != 0 {
		t.Fatal("out-of-range offset fired")
	}
}

func TestProtocolIIDistanceWithin(t *testing.T) {
	rs := mustParse(t, `alert tcp any any -> any any (content:"firstkw1"; content:"secondk2"; distance:4; within:20; sid:7;)`)
	good := []byte("firstkw1 pad secondk2 x")            // gap 5, ends within 20
	tooClose := []byte("firstkw1 secondk2 padding here") // gap 1 < 4
	events, _ := runTraffic(t, rs, tokenize.Window, dpienc.ProtocolII, good)
	if len(ruleMatches(events)) != 1 {
		t.Fatal("valid distance/within did not fire")
	}
	events, _ = runTraffic(t, rs, tokenize.Window, dpienc.ProtocolII, tooClose)
	if len(ruleMatches(events)) != 0 {
		t.Fatal("distance violation fired")
	}
	tooFar := []byte("firstkw1 " + strings.Repeat("z", 40) + " secondk2")
	events, _ = runTraffic(t, rs, tokenize.Window, dpienc.ProtocolII, tooFar)
	if len(ruleMatches(events)) != 0 {
		t.Fatal("within violation fired")
	}
}

func TestProtocolIIIRecoversSSLKeyOnMatch(t *testing.T) {
	rs := mustParse(t, `alert tcp any any -> any any (content:"attackkw"; sid:9;)`)
	payload := []byte("benign then attackkw appears")
	events, kSSL := runTraffic(t, rs, tokenize.Window, dpienc.ProtocolIII, payload)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	found := false
	for _, ev := range events {
		if ev.HasSSLKey {
			found = true
			if ev.SSLKey != kSSL {
				t.Fatalf("recovered %x, want %x", ev.SSLKey, kSSL)
			}
		}
	}
	if !found {
		t.Fatal("no event carried the SSL key")
	}
}

func TestProtocolIIINoKeyWithoutMatch(t *testing.T) {
	rs := mustParse(t, `alert tcp any any -> any any (content:"attackkw"; sid:9;)`)
	payload := []byte("entirely benign traffic, nothing to see")
	events, _ := runTraffic(t, rs, tokenize.Window, dpienc.ProtocolIII, payload)
	if len(events) != 0 {
		t.Fatal("events fired without a keyword in traffic")
	}
}

func TestRuleMatchFiresOncePerFlow(t *testing.T) {
	rs := mustParse(t, `alert tcp any any -> any any (content:"evilword"; sid:1;)`)
	payload := []byte("evilword evilword evilword")
	events, _ := runTraffic(t, rs, tokenize.Window, dpienc.ProtocolI, payload)
	if got := len(ruleMatches(events)); got != 1 {
		t.Fatalf("rule fired %d times, want 1", got)
	}
}

func TestEngineResetResynchronizes(t *testing.T) {
	rs := mustParse(t, `alert tcp any any -> any any (content:"evilword"; sid:1;)`)
	k := bbcrypto.RandomBlock()
	sender := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolI, 0)
	sender.SetResetInterval(16)
	eng := NewEngine(rs, keysFor(k, rs, tokenize.Window), Config{
		Mode: tokenize.Window, Protocol: dpienc.ProtocolI, Salt0: 0,
	})
	matches := 0
	feed := func(payload []byte) {
		for _, tok := range tokenize.TokenizeAll(tokenize.Window, payload) {
			for _, ev := range eng.ScanBatch([]dpienc.EncryptedToken{sender.EncryptToken(tok)}, nil) {
				if ev.Kind == KeywordMatch {
					matches++
				}
			}
		}
		if newSalt, reset := sender.AccountBytes(len(payload)); reset {
			eng.Reset(newSalt)
		}
	}
	feed([]byte("evilword first"))
	feed([]byte("evilword second")) // after a reset
	feed([]byte("evilword third"))  // after another reset
	if matches != 3 {
		t.Fatalf("got %d keyword matches across resets, want 3", matches)
	}
}

func TestTreeAndHashIndexAgree(t *testing.T) {
	rs := mustParse(t,
		`alert tcp any any -> any any (content:"evilword"; sid:1;)`,
		`alert tcp any any -> any any (content:"otherkw9"; content:"moremore"; sid:2;)`,
		`alert tcp any any -> any any (content:"maliciouslylong!"; sid:3;)`,
	)
	payload := []byte("evilword otherkw9 padding maliciouslylong! and moremore evilword")
	events, _ := runTraffic(t, rs, tokenize.Window, dpienc.ProtocolII, payload)
	if got := ruleMatches(events); len(got) != 3 {
		t.Fatalf("expected all 3 rules to fire, got %v", got)
	}
}

func TestEncryptedDetectionEqualsPlaintextSearch(t *testing.T) {
	// Key invariant: under window tokenization, BlindBox detection of
	// keywords >= TokenSize equals plaintext substring search.
	keywords := []string{"evilkw01", "badbadbadbad", "exploit8"}
	var lines []string
	for i, kw := range keywords {
		lines = append(lines, fmt.Sprintf(`alert tcp any any -> any any (content:"%s"; sid:%d;)`, kw, i+1))
	}
	rs := mustParse(t, lines...)
	payloads := []string{
		"nothing here",
		"evilkw01 at start",
		"ends with exploit8",
		"badbadbadbad mid evilkw01 end exploit8",
		"overlapping badbadbadbadbadbad stutter",
		"almost evilkw0 but not quite; exploit9 also no",
	}
	for _, p := range payloads {
		events, _ := runTraffic(t, rs, tokenize.Window, dpienc.ProtocolII, []byte(p))
		fired := make(map[int]bool)
		for _, sid := range ruleMatches(events) {
			fired[sid] = true
		}
		for i, kw := range keywords {
			want := strings.Contains(p, kw)
			if fired[i+1] != want {
				t.Errorf("payload %q keyword %q: fired=%v want=%v", p, kw, fired[i+1], want)
			}
		}
	}
}

func TestMissingTokenKeysDegradeGracefully(t *testing.T) {
	// Withholding a fragment's token key must disable only that keyword.
	rs := mustParse(t,
		`alert tcp any any -> any any (content:"evilword"; sid:1;)`,
		`alert tcp any any -> any any (content:"otherkw9"; sid:2;)`,
	)
	k := bbcrypto.RandomBlock()
	keys := keysFor(k, rs, tokenize.Window)
	// Remove the key for "evilword".
	var evil [tokenize.TokenSize]byte
	copy(evil[:], "evilword")
	delete(keys, rules.FragmentBlock(evil))

	sender := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, 0)
	eng := NewEngine(rs, keys, Config{Mode: tokenize.Window, Protocol: dpienc.ProtocolII})
	var events []Event
	for _, tok := range tokenize.TokenizeAll(tokenize.Window, []byte("evilword and otherkw9")) {
		events = eng.ScanBatch([]dpienc.EncryptedToken{sender.EncryptToken(tok)}, events)
	}
	got := ruleMatches(events)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("rule matches = %v, want [2]", got)
	}
}

func TestSharedFragmentAcrossRules(t *testing.T) {
	// Two rules sharing the keyword must both fire from one traffic
	// occurrence of it (plus the second rule's extra keyword).
	rs := mustParse(t,
		`alert tcp any any -> any any (content:"sharedkw"; sid:1;)`,
		`alert tcp any any -> any any (content:"sharedkw"; content:"extrakw2"; sid:2;)`,
	)
	payload := []byte("sharedkw and extrakw2 both present")
	events, _ := runTraffic(t, rs, tokenize.Window, dpienc.ProtocolII, payload)
	got := ruleMatches(events)
	if len(got) != 2 {
		t.Fatalf("rule matches = %v, want both rules", got)
	}
}

func TestEncryptedEqualsPlaintextProperty(t *testing.T) {
	// Randomized version of the equivalence invariant: for random keyword
	// sets and payloads over a small alphabet, window-mode encrypted
	// detection fires exactly the rules whose keyword occurs as a
	// substring (keywords are >= TokenSize so window coverage is total).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := []byte("abcd  ..")
		randWord := func(n int) string {
			b := make([]byte, n)
			for i := range b {
				b[i] = alphabet[rng.Intn(len(alphabet))]
			}
			return string(b)
		}
		nRules := 1 + rng.Intn(4)
		var lines []string
		keywords := make([]string, nRules)
		for i := range keywords {
			keywords[i] = randWord(tokenize.TokenSize + rng.Intn(5))
			lines = append(lines, fmt.Sprintf(
				`alert tcp any any -> any any (content:"%s"; sid:%d;)`,
				escapeForRule(keywords[i]), i+1))
		}
		rs, err := rules.Parse("prop", strings.Join(lines, "\n"))
		if err != nil {
			return false
		}
		payload := []byte(randWord(20 + rng.Intn(150)))
		if rng.Intn(2) == 0 && nRules > 0 {
			// Plant one keyword to exercise the positive path too.
			at := rng.Intn(len(payload))
			payload = append(payload[:at], append([]byte(keywords[rng.Intn(nRules)]), payload[at:]...)...)
		}

		k := bbcrypto.RandomBlock()
		sender := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, 0)
		eng := NewEngine(rs, keysFor(k, rs, tokenize.Window), Config{
			Mode: tokenize.Window, Protocol: dpienc.ProtocolII,
		})
		fired := make(map[int]bool)
		for _, tok := range tokenize.TokenizeAll(tokenize.Window, payload) {
			for _, ev := range eng.ScanBatch([]dpienc.EncryptedToken{sender.EncryptToken(tok)}, nil) {
				if ev.Kind == RuleMatch {
					fired[ev.Rule.SID] = true
				}
			}
		}
		for i, kw := range keywords {
			want := strings.Contains(string(payload), kw)
			if fired[i+1] != want {
				t.Logf("seed %d keyword %q payload %q: fired=%v want=%v",
					seed, kw, payload, fired[i+1], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func escapeForRule(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, `;`, `\;`)
}

func TestEngineAccessors(t *testing.T) {
	// Two rules sharing a keyword search for one fragment, before and
	// after a counter reset.
	rs := mustParse(t,
		`alert tcp any any -> any any (content:"evilword"; sid:1;)`,
		`alert tcp any any -> any any (content:"evilword"; content:"otherkw9"; sid:2;)`,
	)
	k := bbcrypto.RandomBlock()
	eng := NewEngine(rs, keysFor(k, rs, tokenize.Window), Config{Mode: tokenize.Window, Protocol: dpienc.ProtocolII})
	if eng.NumFragments() != 2 {
		t.Fatalf("NumFragments = %d, want 2", eng.NumFragments())
	}
	eng.Reset(7)
	if eng.NumFragments() != 2 {
		t.Fatalf("NumFragments after Reset = %d, want 2", eng.NumFragments())
	}
}

func TestCandidatePruningBoundsMemory(t *testing.T) {
	// A long flow full of *partial* fragment hits must not accumulate
	// unbounded keyword-start candidates: the prune horizon discards stale
	// ones. Build a two-fragment keyword and stream only its first
	// fragment, repeatedly, over a wide offset range.
	rs := mustParse(t, `alert tcp any any -> any any (content:"fragAAAAfragBBBB"; sid:1;)`)
	k := bbcrypto.RandomBlock()
	sender := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, 0)
	eng := NewEngine(rs, keysFor(k, rs, tokenize.Window), Config{
		Mode: tokenize.Window, Protocol: dpienc.ProtocolII,
	})
	var frag [tokenize.TokenSize]byte
	copy(frag[:], "fragAAAA")
	for off := 0; off < 1<<20; off += 64 {
		eng.ScanBatch([]dpienc.EncryptedToken{sender.EncryptToken(tokenize.Token{Text: frag, Offset: off})}, nil)
	}
	// All candidates older than the horizon must have been pruned.
	total := 0
	for _, cr := range eng.crules {
		for _, ks := range cr.keywords {
			total += len(ks.cands)
		}
	}
	// The prune runs every horizon bytes and keeps one horizon of history,
	// so at most ~2 horizons of candidates (at stride 64) may be live.
	if total > 2*(64<<10)/64+16 {
		t.Fatalf("candidate map grew unboundedly: %d entries", total)
	}
}
