// Package evasion is a deterministic adversary framework for the BlindBox
// detection path. It takes ground-truth corpora (payloads with pinned rule
// hits) and applies named evasion transforms — keyword splitting across
// tokenization and write boundaries, overlapping and ambiguous segment
// reassembly, padding/case/encoding mutations, fragmentation at
// parser-ambiguous offsets — each tagged with an expected outcome:
//
//   - MustDetect: the encrypted path must fully match the targeted rule;
//   - DocumentedMiss: the plaintext baseline detects the rule but the
//     encrypted path legitimately misses it, and the miss class is
//     enumerated in DESIGN.md §10 (the gate fails on any undeclared miss);
//   - MustNotFalseAlert: neither engine may produce a rule alert.
//
// The transforms follow the evasion classes of "Fingerprinting Deep Packet
// Inspection Devices by Their Ambiguities": an attacker who controls byte
// placement, segmentation and encoding probes exactly these seams between
// the tokenizer, the reassembler and the matcher.
package evasion

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/rules"
	"repro/internal/tokenize"
)

// Outcome classifies what the detection path must do with one adversarial
// case.
type Outcome int

const (
	// MustDetect requires a full RuleMatch for the targeted SID.
	MustDetect Outcome = iota
	// DocumentedMiss requires that the plaintext baseline detects the
	// targeted SID while the encrypted path does not, and that the case's
	// MissClass appears in the DESIGN.md §10 enumeration.
	DocumentedMiss
	// MustNotFalseAlert requires zero rule alerts from both engines.
	MustNotFalseAlert
)

// String names the outcome for reports and JSON.
func (o Outcome) String() string {
	switch o {
	case MustDetect:
		return "must-detect"
	case DocumentedMiss:
		return "documented-miss"
	case MustNotFalseAlert:
		return "must-not-false-alert"
	default:
		return "unknown"
	}
}

// Documented miss classes: every DocumentedMiss case carries one of these
// identifiers, and DESIGN.md §10 must enumerate each. A miss tagged with a
// class not listed here (or a class absent from DESIGN.md) is undeclared
// and fails the gate.
const (
	// MissShortKeywordWindow: keywords shorter than tokenize.TokenSize are
	// not expressible under window tokenization (SplitKeyword yields nil).
	MissShortKeywordWindow = "short-keyword-window"
	// MissMidwordDelimiter: a keyword embedded mid-word is not anchored on
	// any delimiter boundary, so delimiter tokenization never emits its
	// fragments (the §7.1 detection loss).
	MissMidwordDelimiter = "midword-glue-delimiter"
	// MissOutOfOrderReassembly: the replay assembler delivers only in-order
	// segments, so a keyword arriving out of order is invisible to the
	// middlebox view although a buffering endpoint receives it.
	MissOutOfOrderReassembly = "out-of-order-reassembly"
)

// DocumentedMissClasses lists every declared miss class; tests cross-check
// membership and the DESIGN.md enumeration against this registry.
var DocumentedMissClasses = []string{
	MissShortKeywordWindow,
	MissMidwordDelimiter,
	MissOutOfOrderReassembly,
}

// Case is one adversarial payload with pinned ground truth.
type Case struct {
	// Transform names the evasion class that produced the case.
	Transform string
	// Label uniquely identifies the case within its transform.
	Label string
	// Payload is the application bytestream the attacker sends.
	Payload []byte
	// Chunks are payload offsets at which the stream is split into
	// separate writes (token-stream Appends or transport Writes), modeling
	// the packetization boundaries an attacker controls. Offsets are
	// ascending and exclusive of 0 and len(Payload); empty means one write.
	Chunks []int
	// SID is the targeted rule.
	SID int
	// Expect is the required outcome.
	Expect Outcome
	// MissClass identifies the declared miss taxonomy entry; set exactly
	// when Expect is DocumentedMiss.
	MissClass string
	// BaselineDiverges marks cases where the encrypted path intentionally
	// over-alerts relative to the plaintext baseline (delimiter-mode prefix
	// matching of long undelimited keywords); the differential transcript
	// check asserts the divergence instead of equality.
	BaselineDiverges bool
}

// Transform names one evasion class and derives its cases for a
// tokenization mode.
type Transform struct {
	// Name is the transform's stable identifier.
	Name string
	// Desc is a one-line description for reports.
	Desc string
	// Cases derives the transform's adversarial cases for the mode.
	Cases func(mode tokenize.Mode) []Case
}

// Verdict is one case's observed result against both engines.
type Verdict struct {
	// Case is the case that ran.
	Case Case
	// DetectedSIDs are rules the encrypted path fully matched (sorted).
	DetectedSIDs []int
	// BaselineSIDs are rules the plaintext baseline matched (sorted).
	BaselineSIDs []int
	// EncTranscript and BaseTranscript are the canonical alert transcripts
	// of the encrypted path and the plaintext baseline.
	EncTranscript, BaseTranscript string
	// Tokens counts tokens pushed through the encrypted path.
	Tokens int
	// OK reports whether the observed result conforms to Case.Expect.
	OK bool
	// Reason explains a non-conforming verdict.
	Reason string
}

// Runner drives cases through the offline encrypted path (core.Scan) and
// the plaintext baseline, with one fresh detection engine per case so no
// state leaks across cases.
type Runner struct {
	rs   *rules.Ruleset
	ids  *baseline.IDS
	mode tokenize.Mode
}

// NewRunner compiles the ruleset for both engines under one mode.
func NewRunner(rs *rules.Ruleset, mode tokenize.Mode) *Runner {
	return &Runner{rs: rs, ids: baseline.New(rs), mode: mode}
}

// scan drives one bytestream through core.Scan under Protocol II, written
// at the given write boundaries. It returns the fully matched rule SIDs
// (sorted), the keyword-match offsets per (SID, keyword index), and the
// token count.
func (r *Runner) scan(payload []byte, chunks []int) (sids []int, kwSeen map[[2]int][]int, tokens int) {
	evs, tokens := core.Scan(r.rs, core.Config{Protocol: dpienc.ProtocolII, Mode: r.mode}, payload, chunks)
	kwSeen = map[[2]int][]int{}
	ruleSeen := map[int]bool{}
	for _, ev := range evs {
		switch ev.Kind {
		case detect.KeywordMatch:
			key := [2]int{ev.Rule.SID, ev.KeywordIndex}
			kwSeen[key] = append(kwSeen[key], ev.Offset)
		case detect.RuleMatch:
			ruleSeen[ev.Rule.SID] = true
		}
	}
	for sid := range ruleSeen {
		sids = append(sids, sid)
	}
	sort.Ints(sids)
	return sids, kwSeen, tokens
}

// Detect runs one payload through the offline encrypted path in a single
// write and returns the fully matched rule SIDs (sorted) and the token
// count. It judges nothing: callers compare the SIDs with their own
// ground truth (the BitTorrent flows carry theirs).
func (r *Runner) Detect(payload []byte) (sids []int, tokens int) {
	sids, _, tokens = r.scan(payload, nil)
	return sids, tokens
}

// Run executes one case: the payload is tokenized chunk by chunk (the
// case's write boundaries), encrypted, scanned by a fresh detection
// engine, and independently inspected by the plaintext baseline. The
// verdict records both transcripts and whether the outcome conforms.
func (r *Runner) Run(c Case) Verdict {
	v := Verdict{Case: c}

	var kwSeen map[[2]int][]int
	v.DetectedSIDs, kwSeen, v.Tokens = r.scan(c.Payload, c.Chunks)
	v.EncTranscript = transcript(kwSeen, v.DetectedSIDs)

	truth := r.ids.Inspect(c.Payload)
	v.BaselineSIDs = append([]int(nil), truth.RuleSIDs...)
	v.BaseTranscript = baselineTranscript(r.rs, truth)

	v.evaluate()
	return v
}

// evaluate checks the observed result against the case's expectation.
func (v *Verdict) evaluate() {
	det := containsInt(v.DetectedSIDs, v.Case.SID)
	base := containsInt(v.BaselineSIDs, v.Case.SID)
	switch v.Case.Expect {
	case MustDetect:
		if !det {
			v.Reason = fmt.Sprintf("encrypted path missed sid %d (detected %v)", v.Case.SID, v.DetectedSIDs)
			return
		}
		if v.Case.BaselineDiverges && base {
			v.Reason = fmt.Sprintf("baseline unexpectedly matched sid %d: the documented prefix-match divergence did not occur", v.Case.SID)
			return
		}
	case DocumentedMiss:
		if det {
			v.Reason = fmt.Sprintf("declared miss for sid %d actually detected — stale DocumentedMiss declaration", v.Case.SID)
			return
		}
		if !base {
			v.Reason = fmt.Sprintf("plaintext baseline did not detect sid %d — the case is not a real miss", v.Case.SID)
			return
		}
		if !containsString(DocumentedMissClasses, v.Case.MissClass) {
			v.Reason = fmt.Sprintf("miss class %q is not in the declared registry", v.Case.MissClass)
			return
		}
	case MustNotFalseAlert:
		if len(v.DetectedSIDs) != 0 {
			v.Reason = fmt.Sprintf("encrypted path false-alerted on %v", v.DetectedSIDs)
			return
		}
		if len(v.BaselineSIDs) != 0 {
			v.Reason = fmt.Sprintf("plaintext baseline alerted on %v — the case is a miss, not a non-alert", v.BaselineSIDs)
			return
		}
	}
	v.OK = true
}

// transcript renders the encrypted path's alerts in the canonical form the
// differential test compares byte-for-byte: one sorted line per keyword
// match (with its match offsets) and per rule match.
func transcript(kwSeen map[[2]int][]int, ruleSIDs []int) string {
	var lines []string
	for key, offs := range kwSeen {
		lines = append(lines, keywordLine(key[0], key[1], offs))
	}
	for _, sid := range ruleSIDs {
		lines = append(lines, fmt.Sprintf("rule sid=%d", sid))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// baselineTranscript renders a plaintext baseline result in the same
// canonical form as transcript.
func baselineTranscript(rs *rules.Ruleset, res baseline.Result) string {
	var lines []string
	for ruleIdx, perContent := range res.KeywordOffsets {
		sid := rs.Rules[ruleIdx].SID
		for contentIdx, offs := range perContent {
			lines = append(lines, keywordLine(sid, contentIdx, offs))
		}
	}
	for _, sid := range res.RuleSIDs {
		lines = append(lines, fmt.Sprintf("rule sid=%d", sid))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func keywordLine(sid, idx int, offs []int) string {
	sorted := append([]int(nil), offs...)
	sort.Ints(sorted)
	// Deduplicate: the delimiter tokenizer can emit distinct token forms
	// (full window, padded short word) completing the same keyword at the
	// same offset.
	uniq := sorted[:0]
	for i, o := range sorted {
		if i == 0 || o != sorted[i-1] {
			uniq = append(uniq, o)
		}
	}
	return fmt.Sprintf("keyword sid=%d idx=%d at=%v", sid, idx, uniq)
}

func containsInt(xs []int, want int) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func containsString(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}
