// PacketPipeline models how an inline Snort-like IDS actually processes
// traffic, rather than a bare multi-pattern scan: per-packet header decode,
// flow-table lookup, a case-folded payload copy (Snort's multi-pattern
// matcher is case-insensitive), the Aho–Corasick scan, and rule-option
// evaluation on every pattern hit.
//
// Even so, this baseline omits Snort's preprocessors, reassembly and event
// subsystem, so its absolute throughput exceeds real Snort deployments
// (the paper measures 85 Mbps); EXPERIMENTS.md discusses the comparison.

package baseline

import (
	"encoding/binary"

	"repro/internal/ahocorasick"
)

// PacketSize is the MTU-sized packet unit of the pipeline.
const PacketSize = 1500

// flowState is per-flow scanning state, carrying matches across packets.
type flowState struct {
	scanner *ahocorasick.Scanner
	hits    int
}

// PacketPipeline is a reusable per-packet inspection engine.
type PacketPipeline struct {
	ids      *IDS
	acFolded *ahocorasick.Automaton
	flows    map[uint64]*flowState
	foldBuf  []byte
	// Hits counts pattern hits; RuleEvals counts per-hit option checks.
	Hits      int
	RuleEvals int
}

// NewPipeline compiles the case-folded automaton and empty flow table.
func (ids *IDS) NewPipeline() *PacketPipeline {
	var patterns [][]byte
	for _, ref := range ids.patRefs {
		p := ids.rs.Rules[ref.rule].Contents[ref.content].Pattern
		patterns = append(patterns, foldBytes(p))
	}
	return &PacketPipeline{
		ids:      ids,
		acFolded: ahocorasick.New(patterns),
		flows:    make(map[uint64]*flowState),
		foldBuf:  make([]byte, PacketSize),
	}
}

// ProcessPacket inspects one packet of a flow: header decode, flow lookup,
// case-folded scan, and rule-option evaluation per hit.
func (p *PacketPipeline) ProcessPacket(header [40]byte, flowID uint64, payload []byte) {
	// Decode: read the fields an IDS consults (addresses, ports, flags).
	_ = binary.BigEndian.Uint32(header[12:]) // src
	_ = binary.BigEndian.Uint32(header[16:]) // dst
	_ = binary.BigEndian.Uint16(header[20:]) // sport
	_ = binary.BigEndian.Uint16(header[22:]) // dport

	fs := p.flows[flowID]
	if fs == nil {
		fs = &flowState{scanner: p.acFolded.NewScanner()}
		p.flows[flowID] = fs
	}
	if len(payload) > len(p.foldBuf) {
		p.foldBuf = make([]byte, len(payload))
	}
	buf := p.foldBuf[:len(payload)]
	for i, b := range payload {
		buf[i] = foldByte(b)
	}
	for _, m := range fs.scanner.Scan(buf) {
		p.Hits++
		fs.hits++
		// Rule-option evaluation: check the hit content's positional
		// constraints against the match offset, as Snort's detection
		// engine does per fast-pattern hit.
		ref := p.ids.patRefs[m.Pattern]
		c := &p.ids.rs.Rules[ref.rule].Contents[ref.content]
		start := m.End - len(c.Pattern)
		p.RuleEvals++
		if start < c.Offset {
			continue
		}
		if c.Depth >= 0 && start+len(c.Pattern) > c.Offset+c.Depth {
			continue
		}
	}
}

// Flows returns the number of tracked flows.
func (p *PacketPipeline) Flows() int { return len(p.flows) }

func foldByte(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}

func foldBytes(p []byte) []byte {
	out := make([]byte, len(p))
	for i, b := range p {
		out[i] = foldByte(b)
	}
	return out
}
