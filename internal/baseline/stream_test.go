package baseline

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/rules"
)

func TestStreamCarriesKeywordsAcrossWrites(t *testing.T) {
	ids := New(mustParse(t, `alert tcp any any -> any any (content:"AAA"; content:"BBB"; distance:2; within:10; sid:5;)`))
	s := ids.NewStream()
	for _, p := range []string{"xA", "AAxx", "B", "BB tail"} {
		s.Write([]byte(p))
	}
	res := s.Result()
	if !reflect.DeepEqual(res.RuleSIDs, []int{5}) {
		t.Fatalf("RuleSIDs = %v, want [5]", res.RuleSIDs)
	}
	if got := res.KeywordOffsets[0][1]; !reflect.DeepEqual(got, []int{6}) {
		t.Fatalf("BBB offsets = %v, want [6]", got)
	}
	if s.Scanned() != 14 {
		t.Fatalf("Scanned = %d, want 14", s.Scanned())
	}
}

func TestStreamSkipBreaksMatchesAndKeepsOffsets(t *testing.T) {
	ids := New(mustParse(t,
		`alert tcp any any -> any any (content:"needle"; sid:1;)`,
		`alert tcp any any -> any any (pcre:"/ab+c/"; sid:2;)`))
	s := ids.NewStream()
	s.Write([]byte("..nee"))
	s.Write([]byte("dle ab")) // completes neither across the gap below
	s.Skip(1000)
	s.Write([]byte("bc needle"))
	res := s.Result()
	if len(res.RuleSIDs) != 1 || res.RuleSIDs[0] != 1 {
		t.Fatalf("RuleSIDs = %v, want only the keyword after the gap", res.RuleSIDs)
	}
	// "..nee" + "dle ab" = 11 bytes, then 1000 skipped: "needle" after the
	// gap starts at 11 + 1000 + 3.
	if got := res.KeywordOffsets[0][0]; !reflect.DeepEqual(got, []int{2, 1014}) {
		t.Fatalf("needle offsets = %v, want [2 1014]", got)
	}
	if s.Scanned() != 20 {
		t.Fatalf("Scanned = %d, want 20", s.Scanned())
	}
}

func TestStreamPcreWindow(t *testing.T) {
	ids := New(mustParse(t, `alert tcp any any -> any any (content:"cmd="; pcre:"/cmd=[a-f0-9]{8}/"; sid:3;)`))
	// A regexp match split across two writes is seen through the carry,
	// even when the first write filled a batch and the regexps ran on it.
	s := ids.NewStream()
	s.Write(append(bytes.Repeat([]byte("."), pcreCarry-6), "q?cmd="...))
	s.Write([]byte("deadbeef!"))
	if got := s.Result().RuleSIDs; len(got) != 1 {
		t.Fatalf("split pcre match missed: %v", got)
	}
	// One that starts more than pcreCarry bytes before the write it ends
	// in is not: the documented divergence from whole-payload evaluation.
	long := New(mustParse(t, `alert tcp any any -> any any (pcre:"/<x*>/"; sid:4;)`))
	s = long.NewStream()
	s.Write([]byte("<"))
	s.Write(bytes.Repeat([]byte("x"), pcreCarry))
	s.Write([]byte(">"))
	if got := s.Result().RuleSIDs; len(got) != 0 {
		t.Fatalf("pcre matched across more than pcreCarry bytes: %v", got)
	}
	payload := []byte("<" + strings.Repeat("x", pcreCarry) + ">")
	if got := long.Inspect(payload).RuleSIDs; len(got) != 1 {
		t.Fatalf("Inspect must evaluate the whole payload: %v", got)
	}
}

func TestStreamPcreStaysMatched(t *testing.T) {
	ids := New(mustParse(t, `alert tcp any any -> any any (content:"late"; pcre:"/early[0-9]/"; sid:6;)`))
	s := ids.NewStream()
	s.Write([]byte("early7"))
	for i := 0; i < 4; i++ {
		s.Write(bytes.Repeat([]byte("."), pcreCarry))
	}
	s.Write([]byte("late"))
	if got := s.Result().RuleSIDs; len(got) != 1 {
		t.Fatalf("a regexp that matched once must stay matched: %v", got)
	}
}

// streamRulesets are FuzzStreamMatchesInspect's rulesets: generated
// corpus rules without and with pcre (every Protocol III rule carries one).
func streamRulesets(f testing.TB) [2]*rules.Ruleset {
	var out [2]*rules.Ruleset
	for i, spec := range []corpus.RulesetSpec{
		{Name: "plain", NumRules: 40, P1Frac: 0.3, P2Frac: 1, AvgKeywords: 3},
		{Name: "pcre", NumRules: 40, P1Frac: 0.2, P2Frac: 0.5, AvgKeywords: 3},
	} {
		rs, err := spec.Generate(int64(7 + i))
		if err != nil {
			f.Fatal(err)
		}
		out[i] = rs
	}
	return out
}

// FuzzStreamMatchesInspect: feeding a payload to a Stream in arbitrary
// chunks gives Inspect's Result. The corpus rules' regexps are a keyword
// and a hex run, so every pcre match spans far fewer than pcreCarry bytes.
func FuzzStreamMatchesInspect(f *testing.F) {
	rss := streamRulesets(f)
	ids := [2]*IDS{New(rss[0]), New(rss[1])}
	for i, rs := range rss {
		cfg := corpus.TraceConfig{Flows: 3, FlowBytes: 2 << 10, AttacksPerFlow: 3}
		for j, fl := range corpus.AttackTrace(int64(i), rs, cfg) {
			f.Add(fl.Payload, []byte{byte(j * 37), 3, 200, 1}, i == 1)
		}
	}
	// A flow longer than the pcre carry, cut into record-sized writes.
	long := corpus.AttackTrace(9, rss[1], corpus.TraceConfig{Flows: 1, FlowBytes: 48 << 10, AttacksPerFlow: 6})
	f.Add(long[0].Payload, []byte{255}, true)

	f.Fuzz(func(t *testing.T, payload, cuts []byte, pcre bool) {
		set := ids[0]
		if pcre {
			set = ids[1]
		}
		want := set.Inspect(payload)
		s := set.NewStream()
		for i, rest := 0, payload; len(rest) > 0; i++ {
			// Each cut byte is a chunk of 1–256 bytes, or, at 255, of 16 KiB.
			n := 1 + i
			if len(cuts) > 0 {
				n = 1 + int(cuts[i%len(cuts)])
				if n == 256 {
					n = pcreCarry
				}
			}
			n = min(n, len(rest))
			s.Write(rest[:n])
			rest = rest[n:]
		}
		got := s.Result()
		if !reflect.DeepEqual(got.RuleSIDs, want.RuleSIDs) || got.KeywordMatches != want.KeywordMatches ||
			!reflect.DeepEqual(got.KeywordOffsets, want.KeywordOffsets) {
			t.Fatalf("stream %+v\ninspect %+v", got, want)
		}
		if s.Scanned() != len(payload) {
			t.Fatalf("Scanned = %d, want %d", s.Scanned(), len(payload))
		}
	})
}
