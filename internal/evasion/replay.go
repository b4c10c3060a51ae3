// Packet-level evasion transforms: reassembly-ambiguity cases replayed
// through the real capture path (segments → pcap bytes → pcap read →
// packet parse → stream reassembly → encrypted detect). The attacker here
// controls segment ordering, duplication and overlap — the ambiguities a
// middlebox's reassembler and a buffering endpoint can resolve
// differently, which "Fingerprinting Deep Packet Inspection Devices by
// Their Ambiguities" identifies as the core DPI evasion surface.

package evasion

import (
	"bytes"
	"fmt"

	"repro/internal/corpus"
	"repro/internal/packet"
	"repro/internal/pcapio"
)

// PacketCase is one adversarial segment sequence with pinned ground truth.
// Unlike a stream Case, the middlebox view (what reassembly yields) and
// the endpoint view (what a standards-compliant buffering receiver
// delivers to the application) can differ — that gap is the evasion.
type PacketCase struct {
	// Transform names the reassembly-ambiguity class.
	Transform string
	// Label uniquely identifies the case within its transform.
	Label string
	// Segments is the on-the-wire segment sequence, in arrival order.
	Segments []*packet.Segment
	// Endpoint is the bytestream the receiving endpoint's application sees;
	// the plaintext baseline (ground truth) inspects this view.
	Endpoint []byte
	// SID is the targeted rule.
	SID int
	// Expect is the required outcome.
	Expect Outcome
	// MissClass identifies the declared miss taxonomy entry; set exactly
	// when Expect is DocumentedMiss.
	MissClass string
}

// packetMSS keeps several data segments per case so ordering transforms
// have room to operate.
const packetMSS = 700

// packetHitAt pins the keyword region inside the third data segment.
const packetHitAt = 2048

// packetFlowKey addresses every replay case's single flow.
func packetFlowKey() packet.FlowKey {
	return packet.FlowKey{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 80,
	}
}

// PacketCases derives the deterministic reassembly-ambiguity cases. The
// targeted keyword is SIDExact's "attack01" (detectable under both
// tokenization modes), planted delimiter-bounded at a pinned offset.
func PacketCases(seed int64) []PacketCase {
	key := packetFlowKey()
	hit := []byte(" attack01 ")

	evil := corpus.SynthesizeTextSeeded(seed, payloadBytes, corpus.WithHit(packetHitAt, hit))
	benign := corpus.SynthesizeTextSeeded(seed+1, payloadBytes)

	// retransmit-dup: every data segment is transmitted twice back to back.
	// Both the reassembler and the endpoint discard the duplicates, so
	// detection must survive.
	dupSegs := func() []*packet.Segment {
		var out []*packet.Segment
		for _, s := range packet.Segmentize(key, evil, packetMSS) {
			out = append(out, s)
			if len(s.Payload) > 0 {
				dup := *s
				out = append(out, &dup)
			}
		}
		return out
	}()

	// overlap-phantom: the benign stream is sent in order, then a phantom
	// segment re-covers the keyword region's sequence space with keyword
	// bytes. First-wins resolution (both our assembler and the endpoint)
	// discards the phantom, so neither engine may alert; a middlebox with
	// last-wins resolution would false-alert here.
	phantomSegs := func() []*packet.Segment {
		segs := packet.Segmentize(key, benign, packetMSS)
		var out []*packet.Segment
		for _, s := range segs {
			out = append(out, s)
			if covers(s, benign, packetHitAt) {
				phantom := *s
				phantom.Payload = append([]byte(nil), s.Payload...)
				copy(phantom.Payload[packetHitAt-int(s.Seq-1001):], hit)
				out = append(out, &phantom)
			}
		}
		return out
	}()

	// out-of-order: the keyword-bearing segment is swapped with its
	// predecessor. A buffering endpoint reorders and receives the full
	// stream; the replay assembler is in-order-only and drops the keyword
	// segment (and the tail) — a documented miss.
	oooSegs := func() []*packet.Segment {
		segs := packet.Segmentize(key, evil, packetMSS)
		for i := 1; i < len(segs); i++ {
			if covers(segs[i], evil, packetHitAt) {
				segs[i-1], segs[i] = segs[i], segs[i-1]
				break
			}
		}
		return segs
	}()

	return []PacketCase{
		{
			Transform: "retransmit-dup",
			Label:     "retransmit-dup/sid102",
			Segments:  dupSegs,
			Endpoint:  evil,
			SID:       SIDExact,
			Expect:    MustDetect,
		},
		{
			Transform: "overlap-phantom",
			Label:     "overlap-phantom/sid102",
			Segments:  phantomSegs,
			Endpoint:  benign,
			SID:       SIDExact,
			Expect:    MustNotFalseAlert,
		},
		{
			Transform: "out-of-order",
			Label:     "out-of-order/sid102",
			Segments:  oooSegs,
			Endpoint:  evil,
			SID:       SIDExact,
			Expect:    DocumentedMiss,
			MissClass: MissOutOfOrderReassembly,
		},
	}
}

// covers reports whether the data segment's sequence range includes the
// stream offset at (Segmentize starts payload sequence numbers at 1001).
func covers(s *packet.Segment, payload []byte, at int) bool {
	if len(s.Payload) == 0 {
		return false
	}
	start := int(s.Seq - 1001)
	return start <= at && at < start+len(s.Payload)
}

// ReplayThroughCapture pushes a single-flow segment sequence through the
// real capture path — written to an in-memory pcap, read back, parsed and
// checksum-verified, stream-reassembled — and returns the middlebox's
// reassembled view of the flow. RunPacket and the BitTorrent flow test
// replay through it so pcap serialization and reassembly stay in the loop.
func ReplayThroughCapture(segs []*packet.Segment) ([]byte, error) {
	var buf bytes.Buffer
	w, err := pcapio.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	for i, seg := range segs {
		if err := w.WritePacket(pcapio.Packet{TimestampSec: uint32(i), Data: seg.Marshal()}); err != nil {
			return nil, err
		}
	}

	keys, payloads, _, err := pcapio.ReadTCPFlows(&buf)
	if err != nil {
		return nil, err
	}
	if len(keys) != 1 {
		return nil, fmt.Errorf("evasion: replay produced %d flows, want 1", len(keys))
	}
	return payloads[0], nil
}

// RunPacket replays one packet case through the capture path — the
// segments are written to an in-memory pcap, read back, parsed and
// reassembled — then scans the middlebox's reassembled view through the
// encrypted path while the plaintext baseline inspects the endpoint view.
func (r *Runner) RunPacket(pc PacketCase) (Verdict, error) {
	view, err := ReplayThroughCapture(pc.Segments)
	if err != nil {
		return Verdict{}, err
	}

	v := Verdict{Case: Case{
		Transform: pc.Transform,
		Label:     pc.Label,
		Payload:   view,
		SID:       pc.SID,
		Expect:    pc.Expect,
		MissClass: pc.MissClass,
	}}
	var kwSeen map[[2]int][]int
	v.DetectedSIDs, kwSeen, v.Tokens = r.scan(view, nil)
	v.EncTranscript = transcript(kwSeen, v.DetectedSIDs)

	truth := r.ids.Inspect(pc.Endpoint)
	v.BaselineSIDs = append([]int(nil), truth.RuleSIDs...)
	v.BaseTranscript = baselineTranscript(r.rs, truth)

	v.evaluate()
	return v, nil
}
