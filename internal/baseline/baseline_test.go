package baseline

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/rules"
)

func mustParse(t *testing.T, lines ...string) *rules.Ruleset {
	t.Helper()
	rs, err := rules.Parse("test", strings.Join(lines, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestSingleKeywordRule(t *testing.T) {
	ids := New(mustParse(t, `alert tcp any any -> any any (content:"evil"; sid:1;)`))
	res := ids.Inspect([]byte("some evil content"))
	if len(res.RuleSIDs) != 1 || res.RuleSIDs[0] != 1 {
		t.Fatalf("RuleSIDs = %v", res.RuleSIDs)
	}
	if res.KeywordMatches != 1 {
		t.Fatalf("KeywordMatches = %d", res.KeywordMatches)
	}
	res = ids.Inspect([]byte("all benign"))
	if len(res.RuleSIDs) != 0 || res.KeywordMatches != 0 {
		t.Fatalf("false positive: %+v", res)
	}
}

func TestMultiKeywordWithConstraints(t *testing.T) {
	ids := New(mustParse(t,
		`alert tcp any any -> any any (content:"AAA"; content:"BBB"; distance:2; within:10; sid:5;)`))
	if got := ids.Inspect([]byte("AAAxxBBB")).RuleSIDs; len(got) != 1 {
		t.Fatalf("valid spacing: %v", got)
	}
	if got := ids.Inspect([]byte("AAABBB")).RuleSIDs; len(got) != 0 {
		t.Fatalf("distance violation fired: %v", got)
	}
	if got := ids.Inspect([]byte("AAA" + strings.Repeat("x", 30) + "BBB")).RuleSIDs; len(got) != 0 {
		t.Fatalf("within violation fired: %v", got)
	}
}

func TestOffsetDepth(t *testing.T) {
	ids := New(mustParse(t, `alert tcp any any -> any any (content:"GET"; offset:0; depth:3; sid:2;)`))
	if got := ids.Inspect([]byte("GET /index")).RuleSIDs; len(got) != 1 {
		t.Fatalf("anchored GET missed: %v", got)
	}
	if got := ids.Inspect([]byte("xGET /index")).RuleSIDs; len(got) != 0 {
		t.Fatalf("shifted GET fired: %v", got)
	}
}

func TestPcreRule(t *testing.T) {
	ids := New(mustParse(t, `alert tcp any any -> any any (content:"cmd="; pcre:"/cmd=[a-f0-9]{8}/"; sid:3;)`))
	if got := ids.Inspect([]byte("q?cmd=deadbeef!")).RuleSIDs; len(got) != 1 {
		t.Fatalf("pcre rule missed: %v", got)
	}
	if got := ids.Inspect([]byte("q?cmd=nothexy!")).RuleSIDs; len(got) != 0 {
		t.Fatalf("pcre rule fired wrongly: %v", got)
	}
}

func TestPurePcreRule(t *testing.T) {
	ids := New(mustParse(t, `alert tcp any any -> any any (pcre:"/evil[0-9]+/"; sid:4;)`))
	if got := ids.Inspect([]byte("contains evil42 here")).RuleSIDs; len(got) != 1 {
		t.Fatalf("pure pcre missed: %v", got)
	}
}

func TestManyRules(t *testing.T) {
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, strings.ReplaceAll(
			`alert tcp any any -> any any (content:"kwNNN-attack"; sid:NNN;)`,
			"NNN", itoa(i)))
	}
	ids := New(mustParse(t, lines...))
	res := ids.Inspect([]byte("padding kw137-attack padding"))
	if len(res.RuleSIDs) != 1 || res.RuleSIDs[0] != 137 {
		t.Fatalf("RuleSIDs = %v", res.RuleSIDs)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestPipelineDetectsAcrossPackets(t *testing.T) {
	ids := New(mustParse(t, `alert tcp any any -> any any (content:"SplitKeyWord"; sid:1;)`))
	pipe := ids.NewPipeline()
	var header [40]byte
	// The keyword straddles two packets of one flow; the per-flow scanner
	// must carry state across.
	a := []byte("leading data SplitKey")
	b := []byte("Word trailing data")
	pipe.ProcessPacket(header, 1, a)
	pipe.ProcessPacket(header, 1, b)
	if pipe.Hits != 1 {
		t.Fatalf("Hits = %d, want 1", pipe.Hits)
	}
	if pipe.Flows() != 1 {
		t.Fatalf("Flows = %d", pipe.Flows())
	}
}

func TestPipelineCaseInsensitive(t *testing.T) {
	// Snort's multi-pattern matcher is case-insensitive.
	ids := New(mustParse(t, `alert tcp any any -> any any (content:"EvilWord"; sid:1;)`))
	pipe := ids.NewPipeline()
	var header [40]byte
	pipe.ProcessPacket(header, 7, []byte("payload with EVILWORD shouting"))
	if pipe.Hits != 1 {
		t.Fatalf("case-folded hit missed: %d", pipe.Hits)
	}
}

func TestPipelineSeparateFlows(t *testing.T) {
	ids := New(mustParse(t, `alert tcp any any -> any any (content:"crossflow"; sid:1;)`))
	pipe := ids.NewPipeline()
	var header [40]byte
	// Halves on different flows must NOT match.
	pipe.ProcessPacket(header, 1, []byte("cross"))
	pipe.ProcessPacket(header, 2, []byte("flow"))
	if pipe.Hits != 0 {
		t.Fatalf("keyword matched across distinct flows: %d", pipe.Hits)
	}
	if pipe.Flows() != 2 {
		t.Fatalf("Flows = %d", pipe.Flows())
	}
}

func TestPipelineRuleEvalCounts(t *testing.T) {
	ids := New(mustParse(t, `alert tcp any any -> any any (content:"needle"; offset:100; sid:1;)`))
	pipe := ids.NewPipeline()
	var header [40]byte
	pipe.ProcessPacket(header, 3, []byte("needle at offset zero"))
	if pipe.RuleEvals != 1 {
		t.Fatalf("RuleEvals = %d", pipe.RuleEvals)
	}
}

func TestPipelineLargePayloadGrowsFoldBuf(t *testing.T) {
	ids := New(mustParse(t, `alert tcp any any -> any any (content:"bigbuf"; sid:1;)`))
	pipe := ids.NewPipeline()
	var header [40]byte
	big := append(bytes.Repeat([]byte{'x'}, 8000), []byte("BIGBUF")...)
	pipe.ProcessPacket(header, 1, big)
	if pipe.Hits != 1 {
		t.Fatalf("oversized packet missed: %d", pipe.Hits)
	}
}
