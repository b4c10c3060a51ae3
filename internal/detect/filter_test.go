package detect

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/dpienc"
	"repro/internal/rules"
	"repro/internal/tokenize"
)

// filterHarness builds a sender/engine pair over a generated ruleset, the
// same way ruleprep would, but with direct token keys.
func filterHarness(t *testing.T, nRules int, proto dpienc.Protocol) (*dpienc.Sender, *Engine, []string) {
	t.Helper()
	k := bbcrypto.DeriveBlock([]byte("filter-harness"), "k")
	kSSL := bbcrypto.DeriveBlock([]byte("filter-harness"), "kssl")
	var rs rules.Ruleset
	words := make([]string, 0, nRules)
	for i := 0; i < nRules; i++ {
		w := fmt.Sprintf("evil%04d", i) // exactly TokenSize bytes
		words = append(words, w)
		rs.Rules = append(rs.Rules, &rules.Rule{
			SID:      i + 1,
			Contents: []rules.Content{{Pattern: []byte(w), Offset: 0, Depth: -1, Distance: -1, Within: -1}},
		})
	}
	eng := NewEngine(&rs, keysFor(k, &rs, tokenize.Window),
		Config{Mode: tokenize.Window, Protocol: proto, Salt0: 3})
	return dpienc.NewSender(k, kSSL, proto, 3), eng, words
}

// filterPopulation recomputes what the prefilter should contain from the
// live entries and compares slot-by-slot.
func checkFilterConsistent(t *testing.T, e *Engine, when string) {
	t.Helper()
	want := make([]uint16, len(e.filter))
	for _, ent := range e.order {
		want[ent.cur.Uint64()&e.filterMask]++
	}
	for i := range want {
		if e.filter[i] != want[i] {
			t.Fatalf("%s: filter slot %d = %d, want %d", when, i, e.filter[i], want[i])
		}
	}
}

// TestFilterStaysConsistent pins the prefilter invariant — after any mix
// of matches, non-matches, and resets, every slot equals the number of
// live entries hashing to it (so the filter can never produce a false
// negative).
func TestFilterStaysConsistent(t *testing.T) {
	for _, proto := range []dpienc.Protocol{dpienc.ProtocolI, dpienc.ProtocolIII} {
		s, eng, words := filterHarness(t, 200, proto)
		checkFilterConsistent(t, eng, "after NewEngine")
		rng := rand.New(rand.NewSource(4))
		offset := 0
		for round := 0; round < 20; round++ {
			var toks []tokenize.Token
			for i := 0; i < 100; i++ {
				var tk tokenize.Token
				if rng.Intn(3) == 0 {
					copy(tk.Text[:], words[rng.Intn(len(words))])
				} else {
					copy(tk.Text[:], fmt.Sprintf("ben%05d", rng.Intn(1<<16)))
				}
				tk.Offset = offset
				offset += tokenize.TokenSize
				toks = append(toks, tk)
			}
			eng.ScanBatch(s.EncryptTokensInto(nil, toks), nil)
			checkFilterConsistent(t, eng, fmt.Sprintf("proto %s round %d", proto, round))
		}
		s.Reset(99999)
		eng.Reset(99999)
		checkFilterConsistent(t, eng, "after Reset")
	}
}

// TestFilterDetectsThroughResets is the end-to-end guard for the
// fastest-first ordering: matches keep firing with the prefilter in
// front, including for repeated keywords (counter advances move entries
// across filter slots) and across counter resets.
func TestFilterDetectsThroughResets(t *testing.T) {
	s, eng, words := filterHarness(t, 50, dpienc.ProtocolII)
	var events []Event
	offset := 0
	emit := func(word string) {
		var tk tokenize.Token
		copy(tk.Text[:], word)
		tk.Offset = offset
		offset += tokenize.TokenSize
		events = eng.ScanBatch(s.EncryptTokensInto(nil, []tokenize.Token{tk}), events)
	}
	for rep := 0; rep < 5; rep++ {
		emit(words[7])
	}
	s.Reset(123456)
	eng.Reset(123456)
	for rep := 0; rep < 5; rep++ {
		emit(words[7])
		emit("harmless")
	}
	matches := 0
	for _, ev := range events {
		if ev.Kind == KeywordMatch {
			matches++
		}
	}
	if matches != 10 {
		t.Fatalf("got %d keyword matches through the prefilter, want 10", matches)
	}
}

// TestEmptyEngineFilter pins the degenerate case: an engine with no
// coverable fragments rejects every token at the filter without touching
// the index.
func TestEmptyEngineFilter(t *testing.T) {
	eng := NewEngine(&rules.Ruleset{}, TokenKeys{}, Config{Mode: tokenize.Window, Protocol: dpienc.ProtocolI})
	k := bbcrypto.DeriveBlock([]byte("empty"), "k")
	s := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolI, 0)
	evs := eng.ScanBatch(s.EncryptTokensInto(nil, []tokenize.Token{{Text: [8]byte{'x'}}}), nil)
	if len(evs) != 0 {
		t.Fatalf("empty engine produced %d events", len(evs))
	}
}
