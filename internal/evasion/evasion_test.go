package evasion_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/evasion"
	"repro/internal/packet"
	"repro/internal/tokenize"
)

// seed is the corpus seed of the paper experiments (experiments.Seed);
// the packet and BitTorrent corpora are checked at it as well as at
// small seeds.
const seed = 20150817

func modes() map[string]tokenize.Mode {
	return map[string]tokenize.Mode{
		"window":    tokenize.Window,
		"delimiter": tokenize.Delimiter,
	}
}

// TestStreamTransformsConform drives every stream-level case through the
// offline encrypted path under both tokenization modes and requires each
// verdict to conform to its declared outcome.
func TestStreamTransformsConform(t *testing.T) {
	rs, err := evasion.Rules()
	if err != nil {
		t.Fatalf("Rules: %v", err)
	}
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			r := evasion.NewRunner(rs, mode)
			for _, c := range evasion.StreamCases(mode) {
				v := r.Run(c)
				if !v.OK {
					t.Errorf("%s [%s]: %s", c.Label, c.Expect, v.Reason)
				}
				if v.Tokens == 0 {
					t.Errorf("%s: no tokens flowed through the encrypted path", c.Label)
				}
			}
		})
	}
}

// TestPacketCasesConform replays the reassembly-ambiguity cases through
// the pcap capture path under both modes.
func TestPacketCasesConform(t *testing.T) {
	rs, err := evasion.Rules()
	if err != nil {
		t.Fatalf("Rules: %v", err)
	}
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			r := evasion.NewRunner(rs, mode)
			for _, s := range []int64{4242, seed} {
				for _, pc := range evasion.PacketCases(s) {
					v, err := r.RunPacket(pc)
					if err != nil {
						t.Fatalf("seed %d %s: RunPacket: %v", s, pc.Label, err)
					}
					if !v.OK {
						t.Errorf("seed %d %s [%s]: %s", s, pc.Label, pc.Expect, v.Reason)
					}
					if v.Tokens == 0 {
						t.Errorf("seed %d %s: no tokens flowed through the encrypted path", s, pc.Label)
					}
				}
			}
		})
	}
}

// TestBitTorrentFlowsConform replays every P2P flow through the capture
// path and requires the encrypted path's rule alerts to equal the flow's
// pinned ground truth exactly: none on a benign flow, and on the others no
// SID missing and none extra.
func TestBitTorrentFlowsConform(t *testing.T) {
	rs, err := corpus.BitTorrentRules()
	if err != nil {
		t.Fatalf("BitTorrentRules: %v", err)
	}
	r := evasion.NewRunner(rs, tokenize.Delimiter)
	key := packet.FlowKey{
		SrcIP: [4]byte{10, 0, 0, 3}, DstIP: [4]byte{10, 0, 0, 4},
		SrcPort: 51413, DstPort: 6881,
	}
	for _, s := range []int64{1, seed} {
		t.Run(fmt.Sprint(s), func(t *testing.T) {
			for _, f := range corpus.BitTorrentFlows(s) {
				view, err := evasion.ReplayThroughCapture(packet.Segmentize(key, f.Payload, 1460))
				if err != nil {
					t.Fatalf("%s: replay: %v", f.Name, err)
				}
				sids, tokens := r.Detect(view)
				want := slices.Clone(f.MustSIDs)
				slices.Sort(want)
				if !slices.Equal(sids, want) {
					t.Errorf("%s: encrypted path alerted on %v, ground truth %v", f.Name, sids, want)
				}
				if tokens == 0 {
					t.Errorf("%s: no tokens flowed through the encrypted path", f.Name)
				}
			}
		})
	}
}

// TestDifferentialTranscripts is the plaintext-vs-encrypted differential:
// wherever neither engine is expected to miss, the two alert transcripts
// must be byte-identical; for declared misses and the documented
// prefix-match divergence, the transcripts must differ in exactly the
// declared direction.
func TestDifferentialTranscripts(t *testing.T) {
	rs, err := evasion.Rules()
	if err != nil {
		t.Fatalf("Rules: %v", err)
	}
	for name, mode := range modes() {
		t.Run(name, func(t *testing.T) {
			r := evasion.NewRunner(rs, mode)
			for _, c := range evasion.StreamCases(mode) {
				v := r.Run(c)
				if !v.OK {
					t.Fatalf("%s: non-conforming verdict taints differential: %s", c.Label, v.Reason)
				}
				switch {
				case c.Expect == evasion.MustDetect && !c.BaselineDiverges,
					c.Expect == evasion.MustNotFalseAlert:
					if v.EncTranscript != v.BaseTranscript {
						t.Errorf("%s: transcript divergence\nencrypted:\n%s\nbaseline:\n%s",
							c.Label, v.EncTranscript, v.BaseTranscript)
					}
				case c.BaselineDiverges:
					if v.EncTranscript == v.BaseTranscript {
						t.Errorf("%s: expected documented prefix-match divergence, transcripts identical", c.Label)
					}
				case c.Expect == evasion.DocumentedMiss:
					if strings.Contains(v.EncTranscript, "rule sid=") {
						t.Errorf("%s: declared miss but encrypted transcript has rule alerts:\n%s",
							c.Label, v.EncTranscript)
					}
					if !strings.Contains(v.BaseTranscript, "rule sid=") {
						t.Errorf("%s: declared miss but baseline transcript has no rule alert:\n%s",
							c.Label, v.BaseTranscript)
					}
				}
			}
		})
	}
}

// TestTransformInventory pins the suite's shape: at least six named
// transforms across the stream and packet layers, unique names, and every
// declared miss class drawn from the registry.
func TestTransformInventory(t *testing.T) {
	names := map[string]bool{}
	for _, tr := range evasion.Transforms() {
		if tr.Name == "" || tr.Desc == "" {
			t.Errorf("transform %+v missing name or description", tr)
		}
		if names[tr.Name] {
			t.Errorf("duplicate transform name %q", tr.Name)
		}
		names[tr.Name] = true
	}
	for _, pc := range evasion.PacketCases(1) {
		names[pc.Transform] = true
	}
	if len(names) < 6 {
		t.Fatalf("suite names %d transforms, issue requires >= 6: %v", len(names), names)
	}

	registered := map[string]bool{}
	for _, mc := range evasion.DocumentedMissClasses {
		registered[mc] = true
	}
	for _, mode := range modes() {
		for _, c := range evasion.StreamCases(mode) {
			if (c.Expect == evasion.DocumentedMiss) != (c.MissClass != "") {
				t.Errorf("%s: MissClass %q inconsistent with outcome %s", c.Label, c.MissClass, c.Expect)
			}
			if c.MissClass != "" && !registered[c.MissClass] {
				t.Errorf("%s: miss class %q not in registry", c.Label, c.MissClass)
			}
		}
	}
	for _, pc := range evasion.PacketCases(1) {
		if pc.MissClass != "" && !registered[pc.MissClass] {
			t.Errorf("%s: miss class %q not in registry", pc.Label, pc.MissClass)
		}
	}
}

// TestOutcomeString pins the names that failure messages print.
func TestOutcomeString(t *testing.T) {
	want := map[evasion.Outcome]string{
		evasion.MustDetect:        "must-detect",
		evasion.DocumentedMiss:    "documented-miss",
		evasion.MustNotFalseAlert: "must-not-false-alert",
		evasion.Outcome(99):       "unknown",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), o.String(), s)
		}
	}
}

// TestCasesDeterministic requires byte-identical payloads across
// derivations: the adversary corpus is part of the reproducibility
// contract.
func TestCasesDeterministic(t *testing.T) {
	a := evasion.StreamCases(tokenize.Delimiter)
	b := evasion.StreamCases(tokenize.Delimiter)
	if len(a) != len(b) {
		t.Fatalf("case count varies: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Label != b[i].Label || string(a[i].Payload) != string(b[i].Payload) {
			t.Errorf("case %d (%s) not deterministic", i, a[i].Label)
		}
	}
}
