package detect

import (
	"fmt"
	"math/rand"
	"slices"
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

// checkTable holds the table to its one invariant: every entry sits in
// exactly one slot, reachable from its home slot without crossing an empty
// slot, and no slot names anything but an entry.
func checkTable(t *testing.T, e *Engine, when string) {
	t.Helper()
	inSlots := make([]int, len(e.entries))
	for i, s := range e.slots {
		if int(s) > len(e.entries) {
			t.Fatalf("%s: slot %d holds %d, past the %d entries", when, i, s, len(e.entries))
		}
		if s != 0 {
			inSlots[s-1]++
		}
	}
	for x := range e.entries {
		if inSlots[x] != 1 {
			t.Fatalf("%s: entry %d is in %d slots, want 1", when, x, inSlots[x])
		}
		for i := e.entries[x].cur.Uint64() & e.mask; e.slots[i] != uint32(x+1); i = (i + 1) & e.mask {
			if e.slots[i] == 0 {
				t.Fatalf("%s: entry %d is past an empty slot %d of its probe run", when, x, i)
			}
		}
	}
}

// TestFilterStaysConsistent holds the table's invariant after any mix of
// matches, non-matches and resets, so an empty home slot (the one-load
// filter every token passes first) can never hide a live entry.
func TestFilterStaysConsistent(t *testing.T) {
	for _, proto := range []dpienc.Protocol{dpienc.ProtocolI, dpienc.ProtocolIII} {
		s, eng, words := filterHarness(t, 200, proto)
		checkTable(t, eng, "after NewEngine")
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
			checkTable(t, eng, fmt.Sprintf("proto %s round %d", proto, round))
		}
		s.Reset(99999)
		eng.Reset(99999)
		checkTable(t, eng, "after Reset")
	}
}

// TestFilterDetectsThroughResets is the end-to-end guard for the
// empty-home-slot early exit: matches keep firing, including for repeated
// keywords (counter advances move entries across slots) and across counter
// resets.
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
		t.Fatalf("got %d keyword matches, want 10", matches)
	}
}

// TestEmptyEngineFilter pins the degenerate case: an engine with no
// coverable fragments rejects every token at its empty home slot.
func TestEmptyEngineFilter(t *testing.T) {
	eng := NewEngine(&rules.Ruleset{}, TokenKeys{}, Config{Mode: tokenize.Window, Protocol: dpienc.ProtocolI})
	k := bbcrypto.DeriveBlock([]byte("empty"), "k")
	s := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolI, 0)
	evs := eng.ScanBatch(s.EncryptTokensInto(nil, []tokenize.Token{{Text: [8]byte{'x'}}}), nil)
	if len(evs) != 0 {
		t.Fatalf("empty engine produced %d events", len(evs))
	}
}

// TestTableModelClusteredHomes drives random removes and inserts over
// entries whose homes crowd the table's last slots and its first, so probe
// runs wrap the end and backward-shift deletion moves entries across it.
func TestTableModelClusteredHomes(t *testing.T) {
	const nSlots, nEntries = 16, 8
	e := &Engine{entries: make([]entry, nEntries), slots: make([]uint32, nSlots), mask: nSlots - 1}
	rng := rand.New(rand.NewSource(6))
	homes := []uint64{13, 14, 15, 0, 1}
	rekey := func(x int) {
		e.entries[x].cur = dpienc.CiphertextFromUint64(uint64(rng.Intn(1<<20))<<4 | homes[rng.Intn(len(homes))])
	}
	for x := range e.entries {
		rekey(x)
		e.insert(uint32(x))
	}
	checkTable(t, e, "after inserts")
	wrapped := 0
	for step := 0; step < 5000; step++ {
		moved := rng.Perm(nEntries)[:1+rng.Intn(3)]
		for _, x := range moved {
			e.remove(uint32(x))
		}
		for _, x := range moved {
			rekey(x)
			e.insert(uint32(x))
		}
		checkTable(t, e, fmt.Sprintf("step %d", step))
		for i, s := range e.slots {
			if s != 0 && uint64(i) < e.entries[s-1].cur.Uint64()&e.mask {
				wrapped++
				break
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no probe run ever wrapped the table's end")
	}
}

// TestCollidingFragmentsAdvanceInFragmentOrder puts two fragments at one
// ciphertext, the second one first in the probe run: one token carrying
// that ciphertext advances both, and their events come in fragment order.
func TestCollidingFragmentsAdvanceInFragmentOrder(t *testing.T) {
	rs := mustParse(t,
		`alert tcp any any -> any any (content:"firstkw1"; sid:1;)`,
		`alert tcp any any -> any any (content:"secondk2"; sid:2;)`,
	)
	k := bbcrypto.DeriveBlock([]byte("collision"), "k")
	const salt0 = 5
	eng := NewEngine(rs, keysFor(k, rs, tokenize.Window), Config{Mode: tokenize.Window, Protocol: dpienc.ProtocolII, Salt0: salt0})
	c := eng.entries[0].cur
	eng.entries[1].cur = c
	clear(eng.slots)
	eng.insert(1)
	eng.insert(0)
	checkTable(t, eng, "forced collision")

	var sids []int
	for _, ev := range eng.ScanBatch([]dpienc.EncryptedToken{{C1: c}}, nil) {
		if ev.Kind == KeywordMatch {
			sids = append(sids, ev.Rule.SID)
		}
	}
	if !slices.Equal(sids, []int{1, 2}) {
		t.Fatalf("keyword matches for rules %v, want [1 2]", sids)
	}
	for x := range eng.entries {
		ent := &eng.entries[x]
		if ent.ct != 1 || ent.cur != dpienc.Encrypt(ent.tk, salt0+1) {
			t.Fatalf("entry %d: counter %d, ciphertext %x; want both advanced once", x, ent.ct, ent.cur)
		}
	}
	checkTable(t, eng, "after the colliding token")
}
