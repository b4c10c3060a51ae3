// Adversarial-scenario experiment: run the evasion transform suite and
// the BitTorrent/P2P scenario pack through the offline encrypted path and
// report per-scenario detection rate, false-alert rate and tokens/sec.
// Unlike the §7.1 accuracy experiment (aggregate rates on random
// injections), every case here carries pinned per-case ground truth with
// an expected outcome, so a single undeclared miss or false alert is a
// hard failure rather than a rate shift.

package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/evasion"
	"repro/internal/packet"
	"repro/internal/tokenize"
)

// ScenarioCase records one adversarial case's outcome in the report.
type ScenarioCase struct {
	// Pack and Transform locate the case; Label is unique within the pack.
	Pack, Transform, Label string
	// Outcome is the declared expectation (must-detect, documented-miss,
	// must-not-false-alert).
	Outcome string
	// SIDs are the targeted rule SIDs (one for evasion cases, the pinned
	// ground-truth set for flow scenarios).
	SIDs []int
	// DetectedSIDs are the rules the encrypted path fully matched.
	DetectedSIDs []int
	// MissClass names the declared miss taxonomy entry, if any.
	MissClass string `json:",omitempty"`
	// OK reports conformance; Reason explains a non-conforming case.
	OK     bool
	Reason string `json:",omitempty"`
}

// ScenarioPack aggregates one scenario pack's counters.
type ScenarioPack struct {
	// Pack names the scenario pack; Mode is the tokenization mode it ran
	// under.
	Pack, Mode string
	// Cases counts all cases; MustDetect/Detected give the detection rate
	// numerator and denominator; Benign counts must-not-false-alert cases.
	Cases, MustDetect, Detected, Benign int
	// DocumentedMisses counts conforming declared misses;
	// UndeclaredMisses counts target SIDs the encrypted path missed
	// without a valid declaration; FalseAlerts counts benign cases that
	// produced any rule alert.
	DocumentedMisses, UndeclaredMisses, FalseAlerts int
	// DetectionRate is Detected/MustDetect; FalseAlertRate is
	// FalseAlerts/Benign (both 1-safe when the denominator is zero).
	DetectionRate, FalseAlertRate float64
	// Tokens and TokensPerSec measure the encrypted-path work.
	Tokens       int
	TokensPerSec float64
	// MissClasses lists the miss taxonomy entries this pack exercised.
	MissClasses []string `json:",omitempty"`
}

// ScenariosResult is the machine-readable BENCH_scenarios.json payload.
type ScenariosResult struct {
	// Seed pins the corpora.
	Seed int64
	// Transforms lists every named evasion transform the suite ran.
	Transforms []string
	// MissClasses is the union of exercised miss classes; the gate checks
	// each against the DESIGN.md enumeration.
	MissClasses []string
	// Packs and Cases hold the per-pack aggregates and per-case records.
	Packs []ScenarioPack
	Cases []ScenarioCase
}

// ScenariosOptions sizes the experiment.
type ScenariosOptions struct {
	// Seed pins the corpora.
	Seed int64
}

// DefaultScenariosOptions uses the repo-wide experiment seed.
func DefaultScenariosOptions() ScenariosOptions { return ScenariosOptions{Seed: Seed} }

// Scenarios runs the evasion suite (both tokenization modes) and the
// BitTorrent pack (delimiter mode, replayed through the capture path).
func Scenarios(opt ScenariosOptions) (*ScenariosResult, error) {
	res := &ScenariosResult{Seed: opt.Seed}
	for _, tr := range evasion.Transforms() {
		res.Transforms = append(res.Transforms, tr.Name)
	}
	for _, pc := range evasion.PacketCases(opt.Seed) {
		res.Transforms = append(res.Transforms, pc.Transform)
	}
	res.Transforms = dedupSorted(res.Transforms)

	for _, mode := range []tokenize.Mode{tokenize.Delimiter, tokenize.Window} {
		pack, cases, err := runEvasionPack(opt.Seed, mode)
		if err != nil {
			return nil, err
		}
		res.Packs = append(res.Packs, pack)
		res.Cases = append(res.Cases, cases...)
	}
	pack, cases, err := runBitTorrentPack(opt.Seed)
	if err != nil {
		return nil, err
	}
	res.Packs = append(res.Packs, pack)
	res.Cases = append(res.Cases, cases...)

	var all []string
	for _, p := range res.Packs {
		all = append(all, p.MissClasses...)
	}
	res.MissClasses = dedupSorted(all)
	return res, nil
}

// runEvasionPack runs every stream and packet evasion case under mode.
func runEvasionPack(seed int64, mode tokenize.Mode) (ScenarioPack, []ScenarioCase, error) {
	rs, err := evasion.Rules()
	if err != nil {
		return ScenarioPack{}, nil, err
	}
	pack := ScenarioPack{Pack: "evasion", Mode: mode.String()}
	if mode == tokenize.Window {
		pack.Pack = "evasion-window"
	}
	r := evasion.NewRunner(rs, mode)

	var verdicts []evasion.Verdict
	start := time.Now()
	for _, c := range evasion.StreamCases(mode) {
		verdicts = append(verdicts, r.Run(c))
	}
	for _, pc := range evasion.PacketCases(seed) {
		v, err := r.RunPacket(pc)
		if err != nil {
			return ScenarioPack{}, nil, err
		}
		verdicts = append(verdicts, v)
	}
	elapsed := time.Since(start)

	var cases []ScenarioCase
	missClasses := map[string]bool{}
	for _, v := range verdicts {
		c := v.Case
		sc := ScenarioCase{
			Pack:         pack.Pack,
			Transform:    c.Transform,
			Label:        c.Label,
			Outcome:      c.Expect.String(),
			SIDs:         []int{c.SID},
			DetectedSIDs: v.DetectedSIDs,
			MissClass:    c.MissClass,
			OK:           v.OK,
			Reason:       v.Reason,
		}
		cases = append(cases, sc)
		pack.Cases++
		pack.Tokens += v.Tokens
		switch c.Expect {
		case evasion.MustDetect:
			pack.MustDetect++
			if containsSID(v.DetectedSIDs, c.SID) {
				pack.Detected++
			} else {
				pack.UndeclaredMisses++
			}
		case evasion.DocumentedMiss:
			if v.OK {
				pack.DocumentedMisses++
				missClasses[c.MissClass] = true
			} else {
				pack.UndeclaredMisses++
			}
		case evasion.MustNotFalseAlert:
			pack.Benign++
			if len(v.DetectedSIDs) != 0 {
				pack.FalseAlerts++
			}
		}
	}
	finishPack(&pack, elapsed, missClasses)
	return pack, cases, nil
}

// runBitTorrentPack replays every P2P flow through the capture path
// (segmentize → pcap → reassemble) and scans the reassembled view.
func runBitTorrentPack(seed int64) (ScenarioPack, []ScenarioCase, error) {
	rs, err := corpus.BitTorrentRules()
	if err != nil {
		return ScenarioPack{}, nil, err
	}
	pack := ScenarioPack{Pack: "bittorrent", Mode: tokenize.Delimiter.String()}
	r := evasion.NewRunner(rs, tokenize.Delimiter)
	key := packet.FlowKey{
		SrcIP: [4]byte{10, 0, 0, 3}, DstIP: [4]byte{10, 0, 0, 4},
		SrcPort: 51413, DstPort: 6881,
	}

	var cases []ScenarioCase
	start := time.Now()
	for _, f := range corpus.BitTorrentFlows(seed) {
		view, err := evasion.ReplayThroughCapture(packet.Segmentize(key, f.Payload, 1460))
		if err != nil {
			return ScenarioPack{}, nil, err
		}
		sids, tokens := r.Detect(view)
		pack.Tokens += tokens
		pack.Cases++

		sc := ScenarioCase{
			Pack:         pack.Pack,
			Transform:    "p2p-flow",
			Label:        f.Name,
			SIDs:         f.MustSIDs,
			DetectedSIDs: sids,
		}
		if len(f.MustSIDs) == 0 {
			sc.Outcome = evasion.MustNotFalseAlert.String()
			pack.Benign++
			if len(sids) != 0 {
				pack.FalseAlerts++
				sc.Reason = fmt.Sprintf("benign flow alerted on %v", sids)
			} else {
				sc.OK = true
			}
		} else {
			sc.Outcome = evasion.MustDetect.String()
			pack.MustDetect++
			missing, extra := diffSIDs(f.MustSIDs, sids)
			switch {
			case len(missing) != 0:
				pack.UndeclaredMisses++
				sc.Reason = fmt.Sprintf("ground-truth sids %v not detected (got %v)", missing, sids)
			case len(extra) != 0:
				pack.FalseAlerts++
				sc.Reason = fmt.Sprintf("unexpected rule alerts %v beyond ground truth %v", extra, f.MustSIDs)
			default:
				pack.Detected++
				sc.OK = true
			}
		}
		cases = append(cases, sc)
	}
	finishPack(&pack, time.Since(start), nil)
	return pack, cases, nil
}

// finishPack computes the pack's derived rates.
func finishPack(p *ScenarioPack, elapsed time.Duration, missClasses map[string]bool) {
	p.DetectionRate, p.FalseAlertRate = 1, 0
	if p.MustDetect > 0 {
		p.DetectionRate = float64(p.Detected) / float64(p.MustDetect)
	}
	if p.Benign > 0 {
		p.FalseAlertRate = float64(p.FalseAlerts) / float64(p.Benign)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		p.TokensPerSec = float64(p.Tokens) / secs
	}
	for mc := range missClasses {
		p.MissClasses = append(p.MissClasses, mc)
	}
	sort.Strings(p.MissClasses)
}

// diffSIDs returns ground-truth SIDs absent from got and detected SIDs
// absent from the ground truth.
func diffSIDs(want, got []int) (missing, extra []int) {
	wantSet := map[int]bool{}
	for _, sid := range want {
		wantSet[sid] = true
	}
	gotSet := map[int]bool{}
	for _, sid := range got {
		gotSet[sid] = true
		if !wantSet[sid] {
			extra = append(extra, sid)
		}
	}
	for _, sid := range want {
		if !gotSet[sid] {
			missing = append(missing, sid)
		}
	}
	return missing, extra
}

func containsSID(sids []int, want int) bool {
	for _, sid := range sids {
		if sid == want {
			return true
		}
	}
	return false
}

func dedupSorted(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

// WriteScenariosJSON writes the result to path, pretty-printed for diffs.
func WriteScenariosJSON(path string, res *ScenariosResult) error {
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// PrintScenarios renders the per-pack summary and any non-conforming
// cases.
func PrintScenarios(w io.Writer, res *ScenariosResult) {
	fmt.Fprintf(w, "adversarial scenarios: %d packs, %d transforms (%s)\n",
		len(res.Packs), len(res.Transforms), strings.Join(res.Transforms, ", "))
	t := newTable(w)
	t.row("Pack", "mode", "cases", "detection", "false alerts", "documented misses", "undeclared", "tokens/sec")
	for _, p := range res.Packs {
		t.row(p.Pack, p.Mode,
			fmt.Sprintf("%d", p.Cases),
			fmt.Sprintf("%d/%d (%.0f%%)", p.Detected, p.MustDetect, p.DetectionRate*100),
			fmt.Sprintf("%d/%d benign", p.FalseAlerts, p.Benign),
			fmt.Sprintf("%d [%s]", p.DocumentedMisses, strings.Join(p.MissClasses, " ")),
			fmt.Sprintf("%d", p.UndeclaredMisses),
			fmt.Sprintf("%.0f", p.TokensPerSec))
	}
	t.flush()
	for _, c := range res.Cases {
		if !c.OK {
			fmt.Fprintf(w, "NONCONFORMING %s/%s [%s]: %s\n", c.Pack, c.Label, c.Outcome, c.Reason)
		}
	}
}
