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
	cfg    Config
	salt0  uint64
	stride uint64
	// entries holds one value per distinct fragment, in first-seen order.
	entries []entry
	// slots is an open-addressed table over the entries' current
	// ciphertexts: each slot holds an entry index + 1, or 0 when empty.
	// An entry's home slot is cur.Uint64() & mask and it sits in the
	// probe run (linear probing) that starts there; deletion shifts the
	// run back, so the table holds no tombstones. At ≤ 1/16 load the
	// home slot of almost every non-matching token is empty: the common
	// per-token outcome costs one array load.
	slots  []uint32
	mask   uint64
	crules []*compiledRule

	// pruneWatermark drives candidate-map pruning.
	pruneWatermark int
}

// NewEngine compiles a ruleset against the token keys obtained from rule
// preparation. Fragments absent from keys leave their keywords unmatchable
// (this is how uncoverable keywords and withheld authorizations degrade,
// rather than break, detection).
func NewEngine(rs *rules.Ruleset, keys TokenKeys, cfg Config) *Engine {
	e := &Engine{cfg: cfg, stride: 1}
	if cfg.Protocol == dpienc.ProtocolIII {
		e.stride = 2
	}
	seen := make(map[bbcrypto.Block]int)
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
					x, ok := seen[blk]
					if !ok {
						x = len(e.entries)
						seen[blk] = x
						e.entries = append(e.entries, entry{tk: tk})
					}
					e.entries[x].refs = append(e.entries[x].refs, fragRef{kw: ks, idx: idx})
				}
			}
			cr.keywords = append(cr.keywords, ks)
		}
		e.crules = append(e.crules, cr)
	}
	// 2^10–2^17 slots at ≤ 1/16 load, and never above 1/2 load.
	bits := 10
	for bits < 17 && 1<<bits < 16*len(e.entries) || 1<<bits < 2*len(e.entries) {
		bits++
	}
	e.slots = make([]uint32, 1<<bits)
	e.mask = uint64(len(e.slots) - 1)
	e.Reset(cfg.Salt0)
	return e
}

// NumFragments reports how many distinct fragments the engine searches for.
func (e *Engine) NumFragments() int { return len(e.entries) }

// Reset re-synchronizes with a sender counter-table reset (§3.2): all
// fragment counters restart at zero under the announced salt0.
func (e *Engine) Reset(salt0 uint64) {
	e.salt0 = salt0
	clear(e.slots)
	for x := range e.entries {
		e.entries[x].ct = 0
		e.entries[x].cur = dpienc.Encrypt(e.entries[x].tk, salt0)
		e.insert(uint32(x))
	}
}

// insert puts entry x in the first empty slot of the probe run from its
// home. The table is at most half full, so there always is one.
func (e *Engine) insert(x uint32) {
	i := e.entries[x].cur.Uint64() & e.mask
	for e.slots[i] != 0 {
		i = (i + 1) & e.mask
	}
	e.slots[i] = x + 1
}

// remove takes entry x out of the table by backward-shift deletion: each
// later entry of the probe run whose home does not lie between the hole
// and itself moves back into the hole. It reads every entry's home from
// its cur, so it must run before x's cur changes.
func (e *Engine) remove(x uint32) {
	i := e.entries[x].cur.Uint64() & e.mask
	for e.slots[i] != x+1 {
		i = (i + 1) & e.mask
	}
	for j := (i + 1) & e.mask; e.slots[j] != 0; j = (j + 1) & e.mask {
		home := e.entries[e.slots[j]-1].cur.Uint64() & e.mask
		if (j-home)&e.mask >= (j-i)&e.mask {
			e.slots[i] = e.slots[j]
			i = j
		}
	}
	e.slots[i] = 0
}

// ScanBatch runs a batch of encrypted tokens (in stream order) through the
// engine, appending detection events to dst and returning the extended
// slice. Any partition of a stream into batches yields the same events in
// the same stream-offset order.
//
// Allocation contract: 0 allocs/op steady-state — passing dst with spare
// capacity (typically a buffer reused across batches, truncated with
// dst[:0]) makes the hot path allocation-free; candidate pruning runs once
// per batch, not per token.
func (e *Engine) ScanBatch(ets []dpienc.EncryptedToken, dst []Event) []Event {
	for i := range ets {
		// Every entry whose current ciphertext equals C1 sits in the
		// probe run from C1's home slot, so an empty home slot ends the
		// common miss with one load.
		if e.slots[ets[i].C1.Uint64()&e.mask] != 0 {
			dst = e.scanToken(&ets[i], dst)
		}
	}
	if n := len(ets); n > 0 {
		// Pruning from the batch's last offset is equivalent to pruning
		// per token: a candidate completing within this batch is at most
		// a keyword length (≪ the 64 KiB horizon) behind it.
		e.maybePrune(ets[n-1].Offset)
	}
	return dst
}

// scanToken is the per-token §3.2 step for a token whose home slot is
// occupied; it appends events to dst. Matching entries are handled in
// fragment order: each pass walks the probe run for the lowest-numbered
// match after the last one handled, which also keeps an entry re-inserted
// by this token from being seen twice.
//
//bb:hotpath
func (e *Engine) scanToken(et *dpienc.EncryptedToken, dst []Event) []Event {
	key := et.C1.Uint64()
	home := key & e.mask
	for last := uint32(0); e.slots[home] != 0; {
		hit := uint32(0)
		for i := home; e.slots[i] != 0; i = (i + 1) & e.mask {
			s := e.slots[i]
			if s > last && (hit == 0 || s < hit) && e.entries[s-1].cur.Uint64() == key {
				hit = s
			}
		}
		if hit == 0 {
			break
		}
		last = hit
		// §3.2 steps 1.1.2–1.1.3: advance the counter, re-encrypt, and
		// re-index the entry under its new ciphertext.
		ent := &e.entries[hit-1]
		saltUsed := e.salt0 + ent.ct
		e.remove(hit - 1)
		ent.ct += e.stride
		ent.cur = dpienc.Encrypt(ent.tk, e.salt0+ent.ct)
		e.insert(hit - 1)
		for _, ref := range ent.refs {
			dst = e.recordFragment(ref, ent, et, saltUsed, dst)
		}
	}
	return dst
}

// recordFragment folds one fragment sighting into keyword and rule state,
// appending resulting events to dst.
func (e *Engine) recordFragment(ref fragRef, ent *entry, et *dpienc.EncryptedToken, saltUsed uint64, dst []Event) []Event {
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
