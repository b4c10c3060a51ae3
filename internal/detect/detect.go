// Package detect implements the BlindBox Detect protocol (§3.2) and the
// rule-evaluation layers on top of it: Protocol I single-keyword matching,
// Protocol II multi-keyword rules with offset constraints (§4), and
// Protocol III probable-cause SSL-key recovery (§5).
//
// The engine's per-token work is a single search-structure lookup, the same
// cost as inspecting unencrypted traffic; per-rule-fragment counters make
// the implicit counter salts of the sender reproducible at the middlebox.
package detect

import (
	"fmt"

	"repro/internal/bbcrypto"
	"repro/internal/dpienc"
	"repro/internal/rules"
	"repro/internal/tokenize"
)

// TokenKeys maps padded fragment blocks to AES_k(fragment). The middlebox
// obtains this map via obfuscated rule encryption (internal/ruleprep); it
// never holds k itself.
type TokenKeys map[bbcrypto.Block]dpienc.TokenKey

// EventKind distinguishes the two detection events the engine reports.
type EventKind int

const (
	// KeywordMatch fires when all fragments of one rule keyword have been
	// observed at consistent offsets. The middlebox learns keyword matches
	// even when the enclosing rule does not fully match (§4, security
	// guarantee is per keyword).
	KeywordMatch EventKind = iota
	// RuleMatch fires when every keyword of a rule has matched and the
	// rule's offset constraints are satisfiable.
	RuleMatch
)

// Event is one detection result.
type Event struct {
	Kind EventKind
	// Rule is the matched rule.
	Rule *rules.Rule
	// KeywordIndex identifies which content of the rule matched (for
	// KeywordMatch events).
	KeywordIndex int
	// Offset is the stream offset of the (keyword) match.
	Offset int
	// SSLKey is the recovered kSSL under Protocol III (zero otherwise).
	//bb:secret
	SSLKey bbcrypto.Block
	// HasSSLKey reports whether SSLKey is valid.
	HasSSLKey bool
}

// entry is the per-fragment detection state: the §3.2 counter ct* and the
// precomputed encryption under the current expected salt.
type entry struct {
	frag bbcrypto.Block
	tk   dpienc.TokenKey
	ct   uint64
	cur  dpienc.Ciphertext
	refs []fragRef
}

type fragRef struct {
	kw  *keywordState
	idx int
}

// keywordState assembles fragment sightings into keyword matches.
type keywordState struct {
	rule    *compiledRule
	kwIdx   int
	content *rules.Content
	rel     []int
	nFrags  int
	// missing is true when some fragment could not be compiled (keyword
	// uncoverable under the tokenization mode) — the keyword can never
	// match, contributing to the documented detection loss.
	missing bool

	// cands maps candidate keyword start offset -> bitmap of fragment
	// indices observed there.
	cands map[int]uint64
	// matchOffsets records starts of complete keyword matches (bounded).
	matchOffsets []int
}

const maxMatchOffsets = 64

// compiledRule tracks rule-level progress.
type compiledRule struct {
	rule     *rules.Rule
	keywords []*keywordState
	alerted  bool
}

// Config configures an Engine.
type Config struct {
	// Mode is the tokenization mode the sender uses; fragment compilation
	// must mirror it.
	Mode tokenize.Mode
	// Protocol selects salt stride and Protocol III key recovery.
	Protocol dpienc.Protocol
	// Salt0 is the initial salt announced by the sender.
	Salt0 uint64
}

// Engine is the middlebox-side detection state for one connection.
type Engine struct {
	cfg     Config
	salt0   uint64
	stride  uint64
	index   *TreeIndex
	entries map[bbcrypto.Block]*entry
	order   []*entry
	crules  []*compiledRule

	// filter/filterMask form a counting prefilter over the low bits of
	// the current fragment ciphertexts: filter[c & filterMask] is how
	// many live entries hash to that slot. The overwhelmingly common
	// per-token outcome is "no fragment matches", and the filter decides
	// it with one array load instead of a search-structure lookup (~11
	// pointer chases in the paper's tree at 3000 fragments) — the
	// fastest check runs first. uint16 counters cannot realistically
	// saturate (that would need 65k fragments sharing one slot).
	filter     []uint16
	filterMask uint64

	// tokensSeen counts processed tokens, for throughput accounting.
	tokensSeen uint64
	// pruneWatermark drives candidate-map pruning.
	pruneWatermark int
}

// NewEngine compiles a ruleset against the token keys obtained from rule
// preparation. Fragments absent from keys leave their keywords unmatchable
// (this is how uncoverable keywords and withheld authorizations degrade,
// rather than break, detection).
func NewEngine(rs *rules.Ruleset, keys TokenKeys, cfg Config) *Engine {
	e := &Engine{
		cfg:     cfg,
		salt0:   cfg.Salt0,
		stride:  1,
		index:   NewTreeIndex(),
		entries: make(map[bbcrypto.Block]*entry),
	}
	if cfg.Protocol == dpienc.ProtocolIII {
		e.stride = 2
	}
	for _, r := range rs.Rules {
		cr := &compiledRule{rule: r}
		for ki := range r.Contents {
			content := &r.Contents[ki]
			ks := &keywordState{
				rule:    cr,
				kwIdx:   ki,
				content: content,
				cands:   make(map[int]uint64),
			}
			frags, rel := tokenize.SplitKeyword(cfg.Mode, content.Pattern)
			if len(frags) == 0 || len(frags) > 64 {
				ks.missing = true
			} else {
				ks.rel = rel
				ks.nFrags = len(frags)
				for idx, f := range frags {
					blk := rules.FragmentBlock(f)
					tk, ok := keys[blk]
					if !ok {
						ks.missing = true
						break
					}
					ent := e.entries[blk]
					if ent == nil {
						ent = &entry{frag: blk, tk: tk}
						ent.cur = dpienc.Encrypt(tk, e.salt0)
						e.entries[blk] = ent
						e.order = append(e.order, ent)
					}
					ent.refs = append(ent.refs, fragRef{kw: ks, idx: idx})
				}
			}
			cr.keywords = append(cr.keywords, ks)
		}
		e.crules = append(e.crules, cr)
	}
	e.index.Rebuild(e.order)
	e.rebuildFilter()
	return e
}

// rebuildFilter sizes the prefilter to keep its load factor low (~1/16
// occupied slots, so ~94% of non-matching tokens early-exit on the first
// load) and repopulates it from the current entry ciphertexts. Slot count
// is clamped to [2^10, 2^17] — at most 256 KiB per engine, small next to
// the entry map and candidate state it fronts.
func (e *Engine) rebuildFilter() {
	bits := 10
	for bits < 17 && 1<<bits < 16*len(e.order) {
		bits++
	}
	if e.filter == nil || len(e.filter) != 1<<bits {
		e.filter = make([]uint16, 1<<bits)
	} else {
		clear(e.filter)
	}
	e.filterMask = uint64(len(e.filter) - 1)
	for _, ent := range e.order {
		e.filter[ent.cur.Uint64()&e.filterMask]++
	}
}

// NumFragments reports how many distinct fragments the engine searches for.
func (e *Engine) NumFragments() int { return len(e.order) }

// TokensSeen reports how many tokens have been processed.
func (e *Engine) TokensSeen() uint64 { return e.tokensSeen }

// Reset re-synchronizes with a sender counter-table reset (§3.2): all
// fragment counters restart at zero under the announced salt0.
func (e *Engine) Reset(salt0 uint64) {
	e.salt0 = salt0
	for _, ent := range e.order {
		ent.ct = 0
		ent.cur = dpienc.Encrypt(ent.tk, salt0)
	}
	e.index.Rebuild(e.order)
	e.rebuildFilter()
}

// ProcessToken runs one encrypted token through BlindBox Detect and returns
// any detection events. Tokens must be processed in stream order. For batch
// workloads prefer ScanBatch, which amortizes call overhead and reuses the
// caller's event buffer; ProcessToken allocates its result slice only when
// events actually fire.
func (e *Engine) ProcessToken(et dpienc.EncryptedToken) []Event {
	e.tokensSeen++
	evs := e.scanToken(et, nil)
	e.maybePrune(et.Offset)
	return evs
}

// ScanBatch runs a batch of encrypted tokens (in stream order) through the
// engine, appending detection events to dst and returning the extended
// slice. Events appear in the same stream-offset order per-token Scan
// (ProcessToken) would produce.
//
// Allocation contract: 0 allocs/op steady-state — passing dst with spare
// capacity (typically a buffer reused across batches, truncated with
// dst[:0]) makes the hot path allocation-free; token counting and
// candidate pruning run once per batch, not per token.
func (e *Engine) ScanBatch(ets []dpienc.EncryptedToken, dst []Event) []Event {
	for i := range ets {
		dst = e.scanToken(ets[i], dst)
	}
	if n := len(ets); n > 0 {
		// Bookkeeping hoisted out of the per-token path: the counter is
		// batch-granular anyway, and pruning from the batch's last offset
		// is equivalent — a candidate completing within this batch is at
		// most a keyword length (≪ the 64 KiB horizon) behind it.
		e.tokensSeen += uint64(n)
		e.maybePrune(ets[n-1].Offset)
	}
	return dst
}

// scanToken is the per-token §3.2 step shared by ProcessToken and
// ScanBatch; it appends events to dst. Checks run fastest-first: the
// prefilter load rejects almost every token before the search-structure
// lookup, which in turn runs before any counter/candidate work.
//
//bb:hotpath
func (e *Engine) scanToken(et dpienc.EncryptedToken, dst []Event) []Event {
	if e.filter[et.C1.Uint64()&e.filterMask] == 0 {
		return dst
	}
	hits := e.index.Lookup(et.C1)
	if len(hits) == 0 {
		return dst
	}
	for _, ent := range hits {
		// §3.2 steps 1.1.2–1.1.3: advance the counter, re-encrypt, and
		// replace the node in the search structure and prefilter.
		saltUsed := e.salt0 + ent.ct
		old := ent.cur
		ent.ct += e.stride
		ent.cur = dpienc.Encrypt(ent.tk, e.salt0+ent.ct)
		e.index.Update(ent, old, ent.cur)
		e.filter[old.Uint64()&e.filterMask]--
		e.filter[ent.cur.Uint64()&e.filterMask]++

		for _, ref := range ent.refs {
			dst = e.recordFragment(ref, ent, et, saltUsed, dst)
		}
	}
	return dst
}

// recordFragment folds one fragment sighting into keyword and rule state,
// appending resulting events to dst.
func (e *Engine) recordFragment(ref fragRef, ent *entry, et dpienc.EncryptedToken, saltUsed uint64, dst []Event) []Event {
	ks := ref.kw
	start := et.Offset - ks.rel[ref.idx]
	if start < 0 {
		return dst
	}
	bits := ks.cands[start] | 1<<uint(ref.idx)
	ks.cands[start] = bits
	if bits != (uint64(1)<<uint(ks.nFrags))-1 {
		return dst
	}
	delete(ks.cands, start)
	if len(ks.matchOffsets) < maxMatchOffsets {
		ks.matchOffsets = append(ks.matchOffsets, start)
	}
	ev := Event{
		Kind:         KeywordMatch,
		Rule:         ks.rule.rule,
		KeywordIndex: ks.kwIdx,
		Offset:       start,
	}
	if e.cfg.Protocol == dpienc.ProtocolIII {
		// Probable cause: a keyword matched, so the middlebox may recover
		// kSSL from the C2 of the token that completed the match (§5).
		ev.SSLKey = dpienc.RecoverSSLKey(ent.tk, saltUsed, et.C2)
		ev.HasSSLKey = true
	}
	dst = append(dst, ev)
	if !ks.rule.alerted && e.ruleSatisfied(ks.rule) {
		ks.rule.alerted = true
		rev := Event{Kind: RuleMatch, Rule: ks.rule.rule, Offset: start}
		if ev.HasSSLKey {
			rev.SSLKey, rev.HasSSLKey = ev.SSLKey, true
		}
		dst = append(dst, rev)
	}
	return dst
}

// ruleSatisfied reports whether every keyword of the rule has a match
// assignment satisfying the rule's offset, depth, distance and within
// constraints (§4). Match lists are small (bounded), so a depth-first
// search over assignments is cheap.
func (e *Engine) ruleSatisfied(cr *compiledRule) bool {
	for _, ks := range cr.keywords {
		if ks.missing || len(ks.matchOffsets) == 0 {
			return false
		}
	}
	return assign(cr.keywords, 0, -1)
}

// assign finds starts for keywords[i:] given the end offset of the previous
// keyword match (prevEnd; -1 for the first keyword).
func assign(kws []*keywordState, i, prevEnd int) bool {
	if i == len(kws) {
		return true
	}
	ks := kws[i]
	c := ks.content
	for _, start := range ks.matchOffsets {
		if start < c.Offset {
			continue
		}
		if c.Depth >= 0 && start+len(c.Pattern) > c.Offset+c.Depth {
			continue
		}
		if prevEnd >= 0 && (c.Distance >= 0 || c.Within >= 0) {
			// Relative constraints chain to the previous content match;
			// contents without them may match anywhere.
			gap := start - prevEnd
			if gap < 0 {
				continue
			}
			if c.Distance >= 0 && gap < c.Distance {
				continue
			}
			// Snort `within`: this content must end within Within bytes
			// of the previous match's end.
			if c.Within >= 0 && gap+len(c.Pattern) > c.Within {
				continue
			}
		}
		if assign(kws, i+1, start+len(c.Pattern)) {
			return true
		}
	}
	return false
}

// maybePrune discards stale keyword-start candidates far behind the stream
// position, bounding memory on long flows. Keywords are at most a few
// hundred bytes, so a 64 KiB horizon is generous.
func (e *Engine) maybePrune(offset int) {
	const horizon = 64 << 10
	if offset < e.pruneWatermark+horizon {
		return
	}
	e.pruneWatermark = offset
	cut := offset - horizon
	for _, cr := range e.crules {
		for _, ks := range cr.keywords {
			for start := range ks.cands {
				if start < cut {
					delete(ks.cands, start)
				}
			}
		}
	}
}

// Stats summarizes per-connection detection state.
type Stats struct {
	Fragments  int
	Tokens     uint64
	RulesTotal int
	RulesFired int
}

// Stats returns detection statistics.
func (e *Engine) Stats() Stats {
	s := Stats{Fragments: len(e.order), Tokens: e.tokensSeen, RulesTotal: len(e.crules)}
	for _, cr := range e.crules {
		if cr.alerted {
			s.RulesFired++
		}
	}
	return s
}

// String implements fmt.Stringer for debugging.
func (e *Engine) String() string {
	s := e.Stats()
	return fmt.Sprintf("detect.Engine{frags=%d tokens=%d rules=%d fired=%d}",
		s.Fragments, s.Tokens, s.RulesTotal, s.RulesFired)
}

// DebugCounters exposes per-fragment hit counters for diagnostics and
// tests: fragment text (trimmed of padding) -> occurrences matched so far.
func (e *Engine) DebugCounters() map[string]uint64 {
	out := make(map[string]uint64)
	for _, ent := range e.order {
		if ent.ct > 0 {
			out[string(ent.frag[:tokenize.TokenSize])] = ent.ct
		}
	}
	return out
}
