// Package tokenize implements the two BlindBox traffic tokenization schemes
// of §3 of the paper:
//
//   - Window-based tokenization emits one fixed-length token per byte offset
//     of the stream (a sliding window), so any keyword of at least TokenSize
//     bytes is detectable at any offset.
//
//   - Delimiter-based tokenization exploits the structure of HTTP rule
//     keywords: keywords start and end adjacent to delimiters (punctuation,
//     spacing, special symbols), so only substrings anchored on
//     delimiter-derived offsets need to be transmitted. This reduces
//     bandwidth (paper Fig. 5: median 2.5x vs 4x total overhead) at the cost
//     of missing keywords that do not align with delimiter boundaries in the
//     traffic (paper §7.1: 97.1% of attack keywords still detected).
//
// The delimiter tokenizer emits two kinds of tokens:
//
//  1. a full TokenSize window at every word start (stream start or a
//     non-delimiter byte preceded by a delimiter), covering keywords of at
//     least TokenSize bytes, and
//
//  2. right-padded short words [o:e) at every word or delimiter-run start o,
//     for the first few delimiter-transition boundaries e within the window,
//     covering keywords shorter than TokenSize such as "login" and "?user="
//     (which window tokenization cannot match at all).
//
// SplitKeyword mirrors this emission on the rule-compilation side so that a
// fragment is searched for only if the tokenizer would emit it.
//
// Both tokenizers operate on a logical bytestream: feeding a stream in
// several Append calls produces exactly the same tokens as feeding it in one
// call, which is required because keywords may straddle packet boundaries.
package tokenize

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// TokenSize is the fixed token length in bytes. The paper uses 8-byte
// tokens: keywords shorter than 8 bytes are right-padded, longer keywords
// are split into TokenSize-byte fragments.
const TokenSize = 8

// Pad is the padding byte used to right-pad short delimiter-bounded words up
// to TokenSize.
const Pad = 0x00

// maxShortBoundaries caps how many padded short-word candidates are emitted
// per anchor. Three transitions suffice for the keyword shapes that occur in
// rulesets (word, word+delimiter-run, delimiter-run+word+delimiter-run, e.g.
// "?user=") while keeping bandwidth overhead near the paper's 2.5x median.
const maxShortBoundaries = 3

// Token is one fixed-size plaintext token together with the absolute offset
// in the bytestream at which it begins. Protocol II rules constrain offsets,
// so the offset travels with the token all the way to detection.
type Token struct {
	// Text is the token contents, always TokenSize bytes; padded short
	// words use Pad bytes on the right.
	//bb:secret
	Text [TokenSize]byte
	// Offset is the byte offset in the logical stream where Text begins.
	Offset int
}

// Mode selects the tokenization algorithm.
type Mode int

const (
	// Window emits one token per byte offset (§3, "window-based").
	Window Mode = iota
	// Delimiter emits only tokens anchored at delimiter boundaries
	// (§3, "delimiter-based").
	Delimiter
)

// String names the tokenization mode for flags and benchmark output.
func (m Mode) String() string {
	switch m {
	case Window:
		return "window"
	case Delimiter:
		return "delimiter"
	default:
		return "unknown"
	}
}

// IsDelimiter reports whether b is a delimiter byte: punctuation, spacing or
// a special symbol. Keywords in HTTP rules start and end before or after
// such bytes (§3). Alphanumerics plus '-' and '_' (word-internal in URLs and
// identifiers) are non-delimiters.
func IsDelimiter(b byte) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
		return false
	case b == '_', b == '-':
		return false
	default:
		return true
	}
}

// Tokenizer turns a bytestream into Tokens under one of the two modes.
// The zero value is not usable; call New.
type Tokenizer struct {
	mode Mode

	// buf holds bytes not yet trimmed: up to TokenSize bytes of processed
	// history (needed for word-start checks) followed by unprocessed bytes.
	buf []byte
	// base is the absolute stream offset of buf[0].
	base int
	// proc is the index into buf of the first unprocessed position.
	proc int
	// segStart is the absolute offset at which the current text segment
	// began (the stream start, or the first text byte after skipped binary
	// content); segment starts anchor words like delimiters do.
	segStart int
	closed   bool
}

// New returns a Tokenizer for the given mode.
func New(mode Mode) *Tokenizer {
	return &Tokenizer{mode: mode}
}

// Mode returns the tokenizer's mode.
func (t *Tokenizer) Mode() Mode { return t.mode }

// Append feeds data into the tokenizer and returns the tokens that became
// complete, in stream order. The returned slice is the caller's.
func (t *Tokenizer) Append(data []byte) []Token { return t.AppendInto(nil, data) }

// AppendInto is Append writing the tokens into dst's backing array from
// index 0, growing it only when it is too small: the form a per-record
// caller uses with one buffer it keeps. The result aliases dst.
func (t *Tokenizer) AppendInto(dst []Token, data []byte) []Token {
	if t.closed {
		panic("tokenize: Append after Flush")
	}
	t.buf = append(t.buf, data...)
	toks := t.drain(dst[:0], false)
	t.trim()
	return toks
}

// Flush signals end-of-stream and returns the remaining tokens. The
// tokenizer cannot be used after Flush.
func (t *Tokenizer) Flush() []Token { return t.FlushInto(nil) }

// FlushInto is Flush writing into dst's backing array (see AppendInto).
func (t *Tokenizer) FlushInto(dst []Token) []Token {
	if t.closed {
		panic("tokenize: double Flush")
	}
	t.closed = true
	toks := t.drain(dst[:0], true)
	t.buf = nil
	return toks
}

// Skip advances the stream past n bytes of content that is not tokenized
// (binary data such as images and video, which the paper's HTTP IDS does
// not inspect, §3). Buffered text is finalized first — keywords cannot
// straddle a text/binary boundary — and the byte after the gap starts a
// fresh anchored segment. It returns the tokens completed by finalizing
// the buffered text.
func (t *Tokenizer) Skip(n int) []Token { return t.SkipInto(nil, n) }

// SkipInto is Skip writing into dst's backing array (see AppendInto).
func (t *Tokenizer) SkipInto(dst []Token, n int) []Token {
	if t.closed {
		panic("tokenize: Skip after Flush")
	}
	if n < 0 {
		panic("tokenize: negative Skip")
	}
	toks := t.drain(dst[:0], true)
	t.base += len(t.buf) + n
	t.buf = t.buf[:0]
	t.proc = 0
	t.segStart = t.base
	return toks
}

// trim discards fully processed bytes, retaining one byte of history so
// word-start checks at the resume position can look backwards.
func (t *Tokenizer) trim() {
	keep := t.proc - 1
	if keep <= 0 {
		return
	}
	t.buf = append(t.buf[:0], t.buf[keep:]...)
	t.base += keep
	t.proc -= keep
}

// drain appends the tokens that are complete (all of them when final) to
// toks.
func (t *Tokenizer) drain(toks []Token, final bool) []Token {
	switch t.mode {
	case Window:
		return t.drainWindow(toks, final)
	case Delimiter:
		return t.drainDelimiter(toks, final)
	default:
		panic("tokenize: unknown mode")
	}
}

// set makes tok the token at offset whose text is the little-endian word w:
// the first text byte is the low one, as binary.LittleEndian.Uint64 reads a
// window. The two fields are stored where they live: a Token assembled on
// the stack and copied out is a 16-byte load that has to wait for two 8-byte
// stores, several times the cost of the window loop's other work.
func (tok *Token) set(w uint64, offset int) {
	binary.LittleEndian.PutUint64(tok.Text[:], w)
	tok.Offset = offset
}

// emit appends the token (w, offset) to toks.
func emit(toks []Token, w uint64, offset int) []Token {
	n := len(toks)
	if n == cap(toks) {
		toks = slices.Grow(toks, 1)
	}
	toks = toks[:n+1]
	toks[n].set(w, offset)
	return toks
}

// firstBytes keeps the first n < TokenSize text bytes of w and pads the
// rest (Pad is zero, so padding is masking).
func firstBytes(w uint64, n int) uint64 { return w & (1<<(8*uint(n)) - 1) }

func (t *Tokenizer) drainWindow(toks []Token, final bool) []Token {
	if n := len(t.buf) - (TokenSize - 1) - t.proc; n > 0 {
		k := len(toks)
		toks = slices.Grow(toks, n)[:k+n]
		out, src, abs := toks[k:], t.buf[t.proc:], t.base+t.proc
		for i := range out {
			out[i].set(binary.LittleEndian.Uint64(src[i:]), abs+i)
		}
		t.proc += n
	}
	if final {
		// Trailing sub-window bytes form no tokens: the rule compiler
		// splits keywords so every fragment fits a full window, and the
		// final full window of the stream covers the stream tail.
		t.proc = len(t.buf)
	}
	return toks
}

// IsKeywordDelimiter reports whether b is a delimiter that plausibly begins
// a rule keyword (URL and header syntax such as the paper's "?user="
// example). Whitespace, quotes and markup brackets begin no known keyword
// shapes, and emitting padded candidates at them would roughly double token
// volume on text-heavy pages.
func IsKeywordDelimiter(b byte) bool {
	switch b {
	case '?', '=', '&', '/', ':', '.', ';', '|', '@', '%', '+', '$', '\\':
		return true
	default:
		return false
	}
}

// The delimiter tokenizer sees a byte only through its class, and decides
// everything from the classes of neighbouring bytes.
const (
	classWord  = iota // not a delimiter
	classPlain        // a delimiter that begins no keyword
	classKey          // a keyword delimiter
	// classStart stands for the byte before a segment's first: a segment
	// start anchors whatever follows it, and no keyword ends there.
	classStart
	numClasses
)

// Anchors: the positions tokens are emitted at. The value is how many padded
// short-word candidates the anchor gets. Word starts rarely begin keywords
// needing more than two boundaries (word, word+delimiter); delimiter-run
// starts need three for shapes like "?user=".
const (
	noAnchor = 0
	// wordAnchor: a word byte at a segment start or after a delimiter. It
	// also gets the full TokenSize window.
	wordAnchor = 2
	// runAnchor: a keyword delimiter at a segment start or after a word
	// byte, the first byte of a delimiter run that can start a keyword.
	runAnchor = maxShortBoundaries
)

// maxTokensPerPosition is the most tokens one stream position yields: a
// word anchor's full window and its padded words, or a run anchor's padded
// words. Window mode yields one.
const maxTokensPerPosition = max(1+wordAnchor, runAnchor)

// MaxTokens bounds the tokens one AppendInto of n bytes, or one SkipInto or
// FlushInto (n = 0), returns under either mode. A call decides at most
// max(n, TokenSize-1) positions: every call but the last leaves the final
// TokenSize-1 positions of the buffer undecided for want of lookahead, so a
// call decides what it was given plus what the previous call left, less
// what it leaves itself.
func MaxTokens(n int) int { return maxTokensPerPosition * max(n, TokenSize-1) }

var (
	// classOf is IsDelimiter and IsKeywordDelimiter as one lookup, built
	// from them at init. It is indexed by payload bytes, but it adds no
	// data-dependent access the tokenizer did not have: which tokens a
	// payload yields, and so every branch taken here, already depends on
	// exactly these classes.
	classOf [256]uint8
	// anchorAt and keywordEnd are indexed by previous<<2 | current class.
	// keywordEnd says whether a keyword can end between the two bytes: a
	// word/delimiter transition, or right after a keyword delimiter (so
	// "?user=" ends there even when followed by further delimiters).
	anchorAt   [numClasses * numClasses]uint8
	keywordEnd [numClasses * numClasses]uint8
)

func init() {
	for b := range classOf {
		switch {
		case IsKeywordDelimiter(byte(b)):
			classOf[b] = classKey
		case IsDelimiter(byte(b)):
			classOf[b] = classPlain
		default:
			classOf[b] = classWord
		}
	}
	delim := func(class int) bool { return class == classPlain || class == classKey }
	for prev := 0; prev < numClasses; prev++ {
		for cur := 0; cur < classStart; cur++ {
			i := prev<<2 | cur
			switch {
			case cur == classWord && prev != classWord:
				anchorAt[i] = wordAnchor
			case cur == classKey && !delim(prev):
				anchorAt[i] = runAnchor
			}
			if prev != classStart && (delim(cur) != delim(prev) || delim(cur) && prev == classKey) {
				keywordEnd[i] = 1
			}
		}
	}
}

// classBefore is the class of the byte before buffer index o.
func (t *Tokenizer) classBefore(o int) uint32 {
	if t.base+o == t.segStart {
		return classStart
	}
	return uint32(classOf[t.buf[o-1]])
}

// drainDelimiter makes one pass over the unprocessed bytes. Position o is
// decided once the TokenSize bytes from o are in the buffer, so the loop
// classifies byte o+7 as it reaches o and carries, in two shift registers,
// the classes of bytes o-1 … o+7 (two bits each, the newest lowest) and
// whether a keyword can end before each of them (one bit each): every byte
// is classified once, and nothing is decided before its lookahead is in.
func (t *Tokenizer) drainDelimiter(toks []Token, final bool) []Token {
	const last = TokenSize - 1
	buf := t.buf
	if end := len(buf) - last; t.proc < end {
		classes, ends := t.classBefore(t.proc), uint32(0)
		for _, b := range buf[t.proc : t.proc+last] {
			classes = classes<<2 | uint32(classOf[b])
			ends = ends<<1 | uint32(keywordEnd[classes&15])
		}
		for o := t.proc; o < end; o++ {
			classes = classes<<2 | uint32(classOf[buf[o+last]])
			ends = ends<<1 | uint32(keywordEnd[classes&15])
			// Bits 14–17 of classes: the classes of bytes o-1 and o.
			candidates := anchorAt[classes>>(2*last)&15]
			if candidates == noAnchor {
				continue
			}
			w, abs := binary.LittleEndian.Uint64(buf[o:]), t.base+o
			if candidates == wordAnchor {
				toks = emit(toks, w, abs)
			}
			// Padded short words [o:e) for the first few e in o+2 … o+7
			// that a keyword can end before (single-byte keywords do not
			// occur in rules): bit k of ends is the verdict for e = o+7-k.
			for m := ends & (1<<(last-1) - 1); m != 0 && candidates > 0; candidates-- {
				k := bits.Len32(m) - 1
				m &^= 1 << k
				toks = emit(toks, firstBytes(w, last-k), abs)
			}
		}
		t.proc = end
	}
	if !final {
		return toks
	}
	// The last positions have less than a window ahead of them: no full
	// window, keyword ends only inside the buffer, and a word or delimiter
	// run cut short by the end of the segment is a candidate itself.
	for o := t.proc; o < len(buf); o++ {
		candidates := anchorAt[t.classBefore(o)<<2|uint32(classOf[buf[o]])]
		if candidates == noAnchor {
			continue
		}
		var text [TokenSize]byte
		copy(text[:], buf[o:])
		w, abs := binary.LittleEndian.Uint64(text[:]), t.base+o
		for e := o + 2; e < len(buf) && candidates > 0; e++ {
			if keywordEnd[classOf[buf[e-1]]<<2|classOf[buf[e]]] != 0 {
				toks = emit(toks, firstBytes(w, e-o), abs)
				candidates--
			}
		}
		if candidates > 0 {
			toks = emit(toks, w, abs)
		}
	}
	t.proc = len(buf)
	return toks
}

// TokenizeAll is a convenience that tokenizes a complete buffer in one shot.
func TokenizeAll(mode Mode, data []byte) []Token {
	tk := New(mode)
	toks := tk.Append(data)
	return append(toks, tk.Flush()...)
}

// SplitKeyword splits a rule keyword into the TokenSize-byte fragments the
// middlebox searches for, for the given tokenization mode, returning the
// fragments and their offsets relative to the keyword start. A nil result
// for a non-empty keyword means the keyword cannot be covered under that
// mode (it contributes to the documented detection loss of §7.1).
//
// In Window mode fragments are taken at stride TokenSize plus an overlapping
// fragment anchored at the keyword end (§3: "maliciously" -> "maliciou" +
// "iciously"); every fragment is guaranteed present in traffic because
// window tokenization covers every offset. Keywords shorter than TokenSize
// are not matchable under window tokenization and yield nil.
//
// In Delimiter mode, keywords of at most TokenSize bytes become a single
// padded fragment (matching the tokenizer's padded short-word form), and
// longer keywords use a window at every word start within the keyword —
// exactly the offsets at which the delimiter tokenizer emits traffic tokens
// when the keyword occurs delimiter-bounded. A long keyword's undelimited
// tail beyond the last fragment is not verified (prefix matching), and a
// long keyword with no coverable word start yields nil.
func SplitKeyword(mode Mode, kw []byte) (frags [][TokenSize]byte, rel []int) {
	if len(kw) == 0 {
		return nil, nil
	}
	add := func(at int) {
		var f [TokenSize]byte
		copy(f[:], kw[at:at+TokenSize])
		frags = append(frags, f)
		rel = append(rel, at)
	}
	switch mode {
	case Window:
		if len(kw) < TokenSize {
			return nil, nil
		}
		i := 0
		for ; i+TokenSize <= len(kw); i += TokenSize {
			add(i)
		}
		if i < len(kw) {
			add(len(kw) - TokenSize)
		}
		return frags, rel
	case Delimiter:
		if len(kw) <= TokenSize {
			var f [TokenSize]byte
			copy(f[:], kw)
			return [][TokenSize]byte{f}, []int{0}
		}
		for at := 0; at+TokenSize <= len(kw); at++ {
			// A word start inside the keyword: position 0 (the keyword is
			// delimiter-bounded in matching traffic) or a non-delimiter
			// preceded by a delimiter.
			if IsDelimiter(kw[at]) {
				continue
			}
			if at == 0 || IsDelimiter(kw[at-1]) {
				add(at)
			}
		}
		return frags, rel
	default:
		panic("tokenize: unknown mode")
	}
}
