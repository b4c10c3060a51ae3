// Package baseline implements a plaintext Snort-like IDS: Aho–Corasick
// multi-pattern search over cleartext payloads plus full rule evaluation
// (offsets, relative constraints and pcre). The paper benchmarks BlindBox's
// middlebox against exactly such a system (§7.2.3, "when running Snort over
// the same traffic...") and uses it as ground truth for the §7.1
// detection-accuracy experiment.
package baseline

import (
	"sort"

	"repro/internal/ahocorasick"
	"repro/internal/rules"
)

// IDS is a compiled plaintext intrusion detection engine.
type IDS struct {
	rs *rules.Ruleset
	ac *ahocorasick.Automaton
	// patRefs maps automaton pattern index -> (rule index, content index).
	patRefs []patRef
	// pcre lists the indices of the rules with a compiled regexp.
	pcre []int
}

type patRef struct {
	rule    int
	content int
}

// New compiles the ruleset into a plaintext IDS.
func New(rs *rules.Ruleset) *IDS {
	ids := &IDS{rs: rs}
	var patterns [][]byte
	for ri, r := range rs.Rules {
		for ci := range r.Contents {
			patterns = append(patterns, r.Contents[ci].Pattern)
			ids.patRefs = append(ids.patRefs, patRef{rule: ri, content: ci})
		}
		if r.Regexp() != nil {
			ids.pcre = append(ids.pcre, ri)
		}
	}
	ids.ac = ahocorasick.New(patterns)
	return ids
}

// Result reports which rules and keywords matched a payload.
type Result struct {
	// RuleSIDs lists the SIDs of fully matched rules.
	RuleSIDs []int
	// KeywordMatches counts (rule, content) pairs with at least one match.
	KeywordMatches int
	// KeywordOffsets records, per rule index, per content index, the match
	// start offsets (bounded).
	KeywordOffsets map[int]map[int][]int
}

const maxOffsetsPerKeyword = 64

// pcreCarry is how many bytes before a write a pcre rule is sure to see:
// one 16 KiB data record. A regexp match longer than this may be missed
// when it spans writes, the way Snort's pcre misses one that spans two
// reassembled buffers.
const pcreCarry = 16 << 10

// Inspect evaluates the full payload against all rules.
func (ids *IDS) Inspect(payload []byte) Result {
	s := ids.NewStream()
	s.Write(payload)
	return s.Result()
}

// Stream evaluates the ruleset over one flow as its bytes arrive, keeping
// none of them past the pcre window. Aho–Corasick state and the bounded
// keyword offsets carry across writes. The pcre rules run once pcreCarry
// written bytes are waiting for them (and at Result and Skip), over those
// bytes behind the pcreCarry bytes they ran over last, so each written
// byte is matched with at least the pcreCarry bytes before it; a rule that
// matched once stays matched. A Stream given its whole payload in one
// Write is Inspect.
type Stream struct {
	ids     *IDS
	sc      *ahocorasick.Scanner
	offsets map[int]map[int][]int
	// pcreHit marks, per rule index, a regexp that matched a window.
	pcreHit []bool
	// win[:ran] is the last ≤ pcreCarry bytes the regexps ran over since
	// the last gap, win[ran:] the written bytes they have yet to see.
	win     []byte
	ran     int
	scanned int
}

// NewStream returns a stream positioned at offset 0.
func (ids *IDS) NewStream() *Stream {
	return &Stream{
		ids:     ids,
		sc:      ids.ac.NewScanner(),
		offsets: make(map[int]map[int][]int),
		pcreHit: make([]bool, len(ids.rs.Rules)),
	}
}

// Write inspects the next bytes of the flow.
func (s *Stream) Write(p []byte) {
	for _, m := range s.sc.Scan(p) {
		ref := s.ids.patRefs[m.Pattern]
		perRule := s.offsets[ref.rule]
		if perRule == nil {
			perRule = make(map[int][]int)
			s.offsets[ref.rule] = perRule
		}
		if len(perRule[ref.content]) < maxOffsetsPerKeyword {
			start := m.End - len(s.ids.rs.Rules[ref.rule].Contents[ref.content].Pattern)
			perRule[ref.content] = append(perRule[ref.content], start)
		}
	}
	s.scanned += len(p)
	if len(s.ids.pcre) == 0 {
		return
	}
	s.win = append(s.win, p...)
	if len(s.win)-s.ran >= pcreCarry {
		s.runPcre()
	}
}

// runPcre runs the regexps over the window if it holds bytes they have
// not seen, then keeps its last pcreCarry bytes for the next batch.
func (s *Stream) runPcre() {
	if s.ran == len(s.win) {
		return
	}
	for _, ri := range s.ids.pcre {
		if !s.pcreHit[ri] && s.ids.rs.Rules[ri].Regexp().Match(s.win) {
			s.pcreHit[ri] = true
		}
	}
	s.win = append(s.win[:0], s.win[max(0, len(s.win)-pcreCarry):]...)
	s.ran = len(s.win)
}

// Skip advances the flow past n bytes that will never be written: their
// sequence space is spent but their contents are unknown. Offsets stay
// absolute, and neither a keyword nor a regexp matches across the gap.
func (s *Stream) Skip(n int) {
	s.sc.Skip(n)
	s.runPcre()
	s.win, s.ran = s.win[:0], 0
}

// Scanned returns how many bytes were written; Skip's do not count.
func (s *Stream) Scanned() int { return s.scanned }

// Result evaluates every rule over what the stream has seen so far. Its
// KeywordOffsets is the stream's own state, which later writes extend.
func (s *Stream) Result() Result {
	s.runPcre()
	res := Result{KeywordOffsets: s.offsets}
	for ri, perRule := range s.offsets {
		res.KeywordMatches += len(perRule)
		rule := s.ids.rs.Rules[ri]
		if len(perRule) != len(rule.Contents) {
			continue
		}
		if !satisfies(rule, perRule) {
			continue
		}
		// Rules whose pcre does not compile under RE2 fall back to
		// content-only evaluation (documented approximation).
		if rule.Regexp() != nil && !s.pcreHit[ri] {
			continue
		}
		res.RuleSIDs = append(res.RuleSIDs, rule.SID)
	}
	// Pure-pcre rules (no contents) match on their regexp alone.
	for _, ri := range s.ids.pcre {
		if rule := s.ids.rs.Rules[ri]; len(rule.Contents) == 0 && s.pcreHit[ri] {
			res.RuleSIDs = append(res.RuleSIDs, rule.SID)
		}
	}
	// The keyword-offset pass above iterates a map; sort so Result is
	// deterministic for a given flow (alert conformance depends on it).
	sort.Ints(res.RuleSIDs)
	return res
}

// satisfies checks the rule's positional constraints with a backtracking
// assignment over recorded match offsets, mirroring detect.assign so the
// encrypted and plaintext engines agree on semantics.
func satisfies(rule *rules.Rule, perRule map[int][]int) bool {
	return assign(rule, perRule, 0, -1)
}

func assign(rule *rules.Rule, perRule map[int][]int, i, prevEnd int) bool {
	if i == len(rule.Contents) {
		return true
	}
	c := &rule.Contents[i]
	for _, start := range perRule[i] {
		if start < c.Offset {
			continue
		}
		if c.Depth >= 0 && start+len(c.Pattern) > c.Offset+c.Depth {
			continue
		}
		if prevEnd >= 0 && (c.Distance >= 0 || c.Within >= 0) {
			gap := start - prevEnd
			if gap < 0 {
				continue
			}
			if c.Distance >= 0 && gap < c.Distance {
				continue
			}
			if c.Within >= 0 && gap+len(c.Pattern) > c.Within {
				continue
			}
		}
		if assign(rule, perRule, i+1, start+len(c.Pattern)) {
			return true
		}
	}
	return false
}
