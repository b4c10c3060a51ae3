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
}

// KeywordRate is the fraction of ground-truth keyword detections found.
func (r AccuracyResult) KeywordRate() float64 {
	if r.BaselineKeywords == 0 {
		return 1
	}
	return float64(r.BlindBoxKeywords) / float64(r.BaselineKeywords)
}

// RuleRate is the fraction of ground-truth rule detections found.
func (r AccuracyResult) RuleRate() float64 {
	if r.BaselineRules == 0 {
		return 1
	}
	return float64(r.BlindBoxRules) / float64(r.BaselineRules)
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
// encrypted path also detected.
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
				}
			}
		}
		for _, sid := range truth.RuleSIDs {
			res.BaselineRules++
			if sids[sid] {
				res.BlindBoxRules++
			}
		}
	}
	return res
}

// PrintAccuracy renders the results against the paper's numbers.
func PrintAccuracy(w io.Writer, results []AccuracyResult) {
	fmt.Fprintln(w, "§7.1 detection accuracy vs plaintext Snort-like ground truth (ICTF-like trace)")
	t := newTable(w)
	t.row("Tokenization", "keywords found", "keyword rate", "rules found", "rule rate", "paper")
	for _, r := range results {
		paper := "100% / 100% (window covers all offsets)"
		if r.Mode == tokenize.Delimiter {
			paper = "97.1% keywords, 99% rules"
		}
		t.row(r.Mode.String(),
			fmt.Sprintf("%d/%d", r.BlindBoxKeywords, r.BaselineKeywords),
			fmt.Sprintf("%.1f%%", r.KeywordRate()*100),
			fmt.Sprintf("%d/%d", r.BlindBoxRules, r.BaselineRules),
			fmt.Sprintf("%.1f%%", r.RuleRate()*100),
			paper)
	}
	t.flush()
}
