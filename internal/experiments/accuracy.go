// §7.1 detection-accuracy experiment: run an ICTF-like attack trace
// through the encrypted BlindBox pipeline and through the plaintext
// Snort-like baseline, and report what fraction of the baseline's keyword
// and rule detections the encrypted path reproduces (paper: 97.1% of
// keywords, 99% of rules under delimiter tokenization).

package experiments

import (
	"fmt"
	"io"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/rules"
	"repro/internal/tokenize"
)

// AccuracyResult compares encrypted detection to plaintext ground truth.
type AccuracyResult struct {
	Mode tokenize.Mode
	// BaselineKeywords / BaselineRules: plaintext detections (ground truth).
	BaselineKeywords, BaselineRules int
	// BlindBoxKeywords / BlindBoxRules: of those, how many the encrypted
	// path also detected.
	BlindBoxKeywords, BlindBoxRules int
	// FalseKeywords / FalseRules: (rule, keyword) pairs and rules the
	// encrypted path raised that the plaintext IDS did not.
	FalseKeywords, FalseRules int
}

// KeywordRate is the fraction of ground-truth keyword detections found.
func (r AccuracyResult) KeywordRate() float64 {
	return fraction(r.BlindBoxKeywords, r.BaselineKeywords)
}

// RuleRate is the fraction of ground-truth rule detections found.
func (r AccuracyResult) RuleRate() float64 {
	return fraction(r.BlindBoxRules, r.BaselineRules)
}

// KeywordPrecision is the fraction of the encrypted path's keyword
// detections that the ground truth holds.
func (r AccuracyResult) KeywordPrecision() float64 {
	return fraction(r.BlindBoxKeywords, r.BlindBoxKeywords+r.FalseKeywords)
}

// RulePrecision is the fraction of the encrypted path's rule detections
// that the ground truth holds.
func (r AccuracyResult) RulePrecision() float64 {
	return fraction(r.BlindBoxRules, r.BlindBoxRules+r.FalseRules)
}

// fraction is n/d, or 1 when there is nothing to score.
func fraction(n, d int) float64 {
	if d == 0 {
		return 1
	}
	return float64(n) / float64(d)
}

// AccuracyOptions sizes the experiment.
type AccuracyOptions struct {
	Rules int
	Trace corpus.TraceConfig
}

// DefaultAccuracyOptions mirrors the paper's setting: the Emerging
// Threats model with regexp rules removed (the paper strips pcre rules
// before the ICTF run), 3% of injections misaligned with delimiters.
func DefaultAccuracyOptions() AccuracyOptions {
	return AccuracyOptions{Rules: 300, Trace: corpus.DefaultTraceConfig()}
}

// Accuracy runs the experiment for both tokenization modes.
func Accuracy(opt AccuracyOptions) ([]AccuracyResult, error) {
	spec, _ := corpus.DatasetByName("Snort Emerging Threats (HTTP)")
	spec.NumRules = opt.Rules
	// Remove regexp rules, as the paper does for this experiment, and
	// suppress sub-window keywords (window tokenization cannot carry them
	// and the paper's window mode "does not affect detection accuracy").
	spec.P2Frac = 1.0
	spec.MinKeywordLen = 8
	rs, err := spec.Generate(Seed)
	if err != nil {
		return nil, err
	}
	var payloads [][]byte
	for _, flow := range corpus.AttackTrace(Seed+1, rs, opt.Trace) {
		payloads = append(payloads, flow.Payload)
	}
	return []AccuracyResult{
		ScoreAccuracy(rs, tokenize.Window, payloads),
		ScoreAccuracy(rs, tokenize.Delimiter, payloads),
	}, nil
}

// ScoreAccuracy runs each flow through core.Scan (Protocol II, one write)
// and through the plaintext IDS, and scores the exact intersection: of the
// (rule, keyword) pairs and rules the plaintext IDS detects, how many the
// encrypted path also detected, and how many more it raised.
func ScoreAccuracy(rs *rules.Ruleset, mode tokenize.Mode, payloads [][]byte) AccuracyResult {
	ids := baseline.New(rs)
	res := AccuracyResult{Mode: mode}
	for _, payload := range payloads {
		evs, _ := core.Scan(rs, core.Config{Protocol: dpienc.ProtocolII, Mode: mode}, payload, nil)
		kws := make(map[[2]int]bool)
		sids := make(map[int]bool)
		for _, ev := range evs {
			switch ev.Kind {
			case detect.KeywordMatch:
				kws[[2]int{ev.Rule.SID, ev.KeywordIndex}] = true
			case detect.RuleMatch:
				sids[ev.Rule.SID] = true
			}
		}
		truth := ids.Inspect(payload)
		for ruleIdx, perContent := range truth.KeywordOffsets {
			sid := rs.Rules[ruleIdx].SID
			for contentIdx := range perContent {
				res.BaselineKeywords++
				if kws[[2]int{sid, contentIdx}] {
					res.BlindBoxKeywords++
					delete(kws, [2]int{sid, contentIdx})
				}
			}
		}
		for _, sid := range truth.RuleSIDs {
			res.BaselineRules++
			if sids[sid] {
				res.BlindBoxRules++
				delete(sids, sid)
			}
		}
		// What is left the plaintext IDS did not detect.
		res.FalseKeywords += len(kws)
		res.FalseRules += len(sids)
	}
	return res
}

// PrintAccuracy renders the results against the paper's numbers.
func PrintAccuracy(w io.Writer, results []AccuracyResult) {
	fmt.Fprintln(w, "§7.1 detection accuracy vs plaintext Snort-like ground truth (ICTF-like trace)")
	t := newTable(w)
	t.row("Tokenization", "keywords found", "keyword rate", "keyword precision", "rules found", "rule rate", "rule precision", "paper")
	for _, r := range results {
		paper := "100% / 100% (window covers all offsets)"
		if r.Mode == tokenize.Delimiter {
			paper = "97.1% keywords, 99% rules"
		}
		t.row(r.Mode.String(),
			fmt.Sprintf("%d/%d", r.BlindBoxKeywords, r.BaselineKeywords),
			fmt.Sprintf("%.1f%%", r.KeywordRate()*100),
			fmt.Sprintf("%.1f%% (%d false)", r.KeywordPrecision()*100, r.FalseKeywords),
			fmt.Sprintf("%d/%d", r.BlindBoxRules, r.BaselineRules),
			fmt.Sprintf("%.1f%%", r.RuleRate()*100),
			fmt.Sprintf("%.1f%% (%d false)", r.RulePrecision()*100, r.FalseRules),
			paper)
	}
	t.flush()
}
