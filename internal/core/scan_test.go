package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/baseline"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/tokenize"
)

// TestScanAcrossSaltResets crosses dpienc.ResetInterval three times in
// 16 KiB writes, with a rule keyword planted in the first write under
// each new salt. Scan must report the rules at the offsets one uncut
// write reports (its only reset comes before any token), and the rules
// the plaintext IDS reports: a reset applied after its write's tokens
// desynchronizes the engine and loses every planted keyword.
func TestScanAcrossSaltResets(t *testing.T) {
	const write = 16 << 10
	rs := mustRules(t,
		`alert tcp any any -> any any (content:"zqxfirstkw"; sid:1;)`,
		`alert tcp any any -> any any (content:"zqxsecondkw"; sid:2;)`,
		`alert tcp any any -> any any (content:"zqxthirdkw"; sid:3;)`,
	)
	payload := corpus.SynthesizeTextSeeded(1, 3*dpienc.ResetInterval)
	var cuts []int
	for off := write; off < len(payload); off += write {
		cuts = append(cuts, off)
	}
	// AccountBytes resets on the write that brings the count to P, so the
	// first write under each new salt is the one ending at k·P.
	for k, kw := range []string{"zqxfirstkw", "zqxsecondkw", "zqxthirdkw"} {
		copy(payload[(k+1)*dpienc.ResetInterval-write+100:], " "+kw+" ")
	}

	ruleMatches := func(evs []detect.Event) (got []string, sids []int) {
		for _, ev := range evs {
			if ev.Kind == detect.RuleMatch {
				got = append(got, fmt.Sprintf("sid %d at %d", ev.Rule.SID, ev.Offset))
				sids = append(sids, ev.Rule.SID)
			}
		}
		sort.Ints(sids)
		return got, sids
	}
	cfg := Config{Protocol: dpienc.ProtocolII, Mode: tokenize.Delimiter}
	evs, _ := Scan(rs, cfg, payload, cuts)
	cut, sids := ruleMatches(evs)
	evs, _ = Scan(rs, cfg, payload, nil)
	whole, _ := ruleMatches(evs)
	if !reflect.DeepEqual(cut, whole) {
		t.Fatalf("16 KiB writes report %v, one write reports %v", cut, whole)
	}
	if want := baseline.New(rs).Inspect(payload).RuleSIDs; !reflect.DeepEqual(sids, want) || len(want) != 3 {
		t.Fatalf("Scan reports sids %v, plaintext IDS %v (want all three)", sids, want)
	}
}
