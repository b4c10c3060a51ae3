package tokenize

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func texts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = string(bytes.TrimRight(t.Text[:], "\x00"))
	}
	return out
}

func tokenSet(toks []Token) map[Token]bool {
	m := make(map[Token]bool, len(toks))
	for _, t := range toks {
		m[t] = true
	}
	return m
}

func TestWindowTokenizesEveryOffset(t *testing.T) {
	// Paper example: "alice apple" -> "alice ap", "lice app", "ice appl", ...
	toks := TokenizeAll(Window, []byte("alice apple"))
	if len(toks) != len("alice apple")-TokenSize+1 {
		t.Fatalf("got %d tokens, want %d", len(toks), len("alice apple")-TokenSize+1)
	}
	if string(toks[0].Text[:]) != "alice ap" {
		t.Fatalf("first token = %q", toks[0].Text)
	}
	if string(toks[1].Text[:]) != "lice app" {
		t.Fatalf("second token = %q", toks[1].Text)
	}
	for i, tok := range toks {
		if tok.Offset != i {
			t.Fatalf("token %d has offset %d", i, tok.Offset)
		}
	}
}

func TestWindowShortInput(t *testing.T) {
	if toks := TokenizeAll(Window, []byte("short")); len(toks) != 0 {
		t.Fatalf("sub-window input produced %d tokens", len(toks))
	}
	if toks := TokenizeAll(Window, []byte("12345678")); len(toks) != 1 {
		t.Fatalf("exactly one window expected, got %d", len(toks))
	}
}

func TestWindowStreamingEqualsOneShot(t *testing.T) {
	data := []byte("GET /login.php?user=alice HTTP/1.1\r\nHost: example.com\r\n\r\n")
	want := TokenizeAll(Window, data)
	for _, chunk := range []int{1, 2, 3, 7, 13} {
		tk := New(Window)
		var got []Token
		for i := 0; i < len(data); i += chunk {
			end := i + chunk
			if end > len(data) {
				end = len(data)
			}
			got = append(got, tk.Append(data[i:end])...)
		}
		got = append(got, tk.Flush()...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk size %d: streaming tokens differ from one-shot", chunk)
		}
	}
}

func TestDelimiterEmitsAnchoredWindows(t *testing.T) {
	data := []byte("login.php?user=alice&pass=sesame99 HTTP")
	toks := tokenSet(TokenizeAll(Delimiter, data))
	// Full window anchored at the word start at stream offset 0.
	if !toks[Token{Text: [8]byte{'l', 'o', 'g', 'i', 'n', '.', 'p', 'h'}, Offset: 0}] {
		t.Error("missing word-start window 'login.ph'")
	}
	// Padded short word "login" (ends before the '.').
	if !toks[paddedToken([]byte("login"), 0)] {
		t.Error("missing padded token 'login'")
	}
	// Padded "?user=" starting at the '?' delimiter-run start (offset 9).
	if !toks[paddedToken([]byte("?user="), 9)] {
		t.Error("missing padded token '?user='")
	}
	// Window "user=ali" at the word start just after the '?'.
	var ua Token
	copy(ua.Text[:], "user=ali")
	ua.Offset = 10
	if !toks[ua] {
		t.Error("missing word-start window 'user=ali'")
	}
}

func TestDelimiterSkipsUnanchoredSubstrings(t *testing.T) {
	// Paper: "logi" and mid-word substrings like "ogin.php" are not
	// candidate keywords and must not be emitted.
	data := []byte("xlogin.php hello")
	toks := TokenizeAll(Delimiter, data)
	for _, tok := range toks {
		if tok.Offset == 1 {
			t.Errorf("mid-word position emitted a token: %q@%d", tok.Text, tok.Offset)
		}
	}
}

func TestDelimiterLongKeywordPrefixFragment(t *testing.T) {
	// "maliciously" bounded by spaces: delimiter mode covers the keyword by
	// its word-start window "maliciou" (prefix matching for undelimited
	// tails; the full interior is only verified under window mode).
	data := []byte(" maliciously ")
	toks := tokenSet(TokenizeAll(Delimiter, data))
	var first Token
	copy(first.Text[:], "maliciou")
	first.Offset = 1
	if !toks[first] {
		t.Fatalf("missing word-start window 'maliciou'; got %v", texts(TokenizeAll(Delimiter, data)))
	}
	frags, rel := SplitKeyword(Delimiter, []byte("maliciously"))
	if len(frags) != 1 || rel[0] != 0 || string(frags[0][:]) != "maliciou" {
		t.Fatalf("SplitKeyword(Delimiter, maliciously) = %q@%v", frags, rel)
	}
}

func TestDelimiterStreamingEqualsOneShot(t *testing.T) {
	data := []byte("GET /login.php?user=alice HTTP/1.1\r\nHost: ex.com\r\nX: maliciously-formed!!\r\n\r\n")
	want := TokenizeAll(Delimiter, data)
	for _, chunk := range []int{1, 2, 3, 5, 11, 31} {
		tk := New(Delimiter)
		var got []Token
		for i := 0; i < len(data); i += chunk {
			end := i + chunk
			if end > len(data) {
				end = len(data)
			}
			got = append(got, tk.Append(data[i:end])...)
		}
		got = append(got, tk.Flush()...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk size %d: streaming tokens differ from one-shot\n got %v\nwant %v", chunk, got, want)
		}
	}
}

func TestStreamingEqualsOneShotProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []byte("abcdefgh ./?=&:\r\n0123XYZ")
	for _, mode := range []Mode{Window, Delimiter} {
		f := func(seed int64, n uint8) bool {
			r := rand.New(rand.NewSource(seed))
			data := make([]byte, int(n)+1)
			for i := range data {
				data[i] = alphabet[r.Intn(len(alphabet))]
			}
			want := TokenizeAll(mode, data)
			tk := New(mode)
			var got []Token
			for i := 0; i < len(data); {
				c := 1 + rng.Intn(9)
				end := i + c
				if end > len(data) {
					end = len(data)
				}
				got = append(got, tk.Append(data[i:end])...)
				i = end
			}
			got = append(got, tk.Flush()...)
			return reflect.DeepEqual(got, want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestWindowCoversAllKeywordFragments(t *testing.T) {
	// Invariant: every fragment SplitKeyword(Window, kw) produces is present
	// as a traffic token whenever kw (len >= TokenSize) occurs in the stream.
	stream := []byte("junkprefix maliciouslylongkeyword junksuffix")
	kw := []byte("maliciouslylongkeyword")
	at := bytes.Index(stream, kw)
	toks := tokenSet(TokenizeAll(Window, stream))
	frags, rel := SplitKeyword(Window, kw)
	for i, f := range frags {
		want := Token{Text: f, Offset: at + rel[i]}
		if !toks[want] {
			t.Fatalf("fragment %q at rel %d missing from window tokens", f, rel[i])
		}
	}
}

func TestDelimiterCoversDelimiterBoundedKeywords(t *testing.T) {
	// Every fragment of a delimiter-bounded keyword must appear as a
	// delimiter-mode traffic token.
	cases := []string{
		"login",
		"login.php",
		"?user=",
		"user=alice",
		"Server: nginx/0.",
		"Content-Type: text/html",
		"maliciously",
	}
	for _, kw := range cases {
		// Delimiter-initial keywords such as "?user=" occur directly after
		// a word in real traffic (e.g. "login.php?user="); keywords
		// starting mid-delimiter-run are part of the documented miss rate.
		prefix := "padpad "
		if IsDelimiter(kw[0]) {
			prefix = "padpad"
		}
		stream := []byte(prefix + kw + " trailer")
		at := bytes.Index(stream, []byte(kw))
		toks := tokenSet(TokenizeAll(Delimiter, stream))
		frags, rel := SplitKeyword(Delimiter, []byte(kw))
		if len(frags) == 0 {
			t.Fatalf("keyword %q produced no fragments", kw)
		}
		for i, f := range frags {
			want := Token{Text: f, Offset: at + rel[i]}
			if !toks[want] {
				t.Errorf("keyword %q: fragment %q at rel %d missing (tokens: %v)",
					kw, f, rel[i], texts(TokenizeAll(Delimiter, stream)))
			}
		}
	}
}

func TestDelimiterMissesMidWordKeyword(t *testing.T) {
	// A keyword embedded mid-word is NOT delimiter-bounded in the traffic and
	// must be missed -- this is the documented coverage loss (§7.1).
	kw := []byte("evilpayloadxx") // 13 bytes, no internal delimiters
	stream := []byte("prefix zzz" + string(kw) + "zzz suffix")
	at := bytes.Index(stream, kw)
	toks := tokenSet(TokenizeAll(Delimiter, stream))
	frags, rel := SplitKeyword(Delimiter, kw)
	found := 0
	for i, f := range frags {
		if toks[Token{Text: f, Offset: at + rel[i]}] {
			found++
		}
	}
	if len(frags) == 0 {
		t.Fatal("expected at least one fragment for a plain-word keyword")
	}
	if found == len(frags) {
		t.Fatal("mid-word keyword unexpectedly fully covered")
	}
}

func TestSplitKeywordWindow(t *testing.T) {
	frags, rel := SplitKeyword(Window, []byte("maliciously"))
	if len(frags) != 2 {
		t.Fatalf("got %d fragments, want 2", len(frags))
	}
	if string(frags[0][:]) != "maliciou" || rel[0] != 0 {
		t.Fatalf("frag 0 = %q@%d", frags[0], rel[0])
	}
	if string(frags[1][:]) != "iciously" || rel[1] != 3 {
		t.Fatalf("frag 1 = %q@%d", frags[1], rel[1])
	}
	frags, rel = SplitKeyword(Window, []byte("0123456789abcdef"))
	if len(frags) != 2 || rel[0] != 0 || rel[1] != 8 {
		t.Fatalf("exact multiple: frags=%d rel=%v", len(frags), rel)
	}
	// Sub-window keywords are unmatchable under window tokenization.
	if frags, _ := SplitKeyword(Window, []byte("short")); frags != nil {
		t.Fatal("short window keyword must yield nil")
	}
}

func TestSplitKeywordDelimiterInternalWordStarts(t *testing.T) {
	frags, rel := SplitKeyword(Delimiter, []byte("Content-Type: text/html"))
	want := map[string]int{"Content-": 0, "text/htm": 14}
	if len(frags) != len(want) {
		t.Fatalf("got %d fragments %v, want %d", len(frags), frags, len(want))
	}
	for i, f := range frags {
		name := string(f[:])
		at, ok := want[name]
		if !ok || at != rel[i] {
			t.Fatalf("unexpected fragment %q@%d", name, rel[i])
		}
	}
}

func TestSplitKeywordEmpty(t *testing.T) {
	for _, mode := range []Mode{Window, Delimiter} {
		frags, rel := SplitKeyword(mode, nil)
		if frags != nil || rel != nil {
			t.Fatalf("mode %v: empty keyword must produce nothing", mode)
		}
	}
}

func TestSplitKeywordUncoverable(t *testing.T) {
	// A long keyword of pure delimiters has no word start: nil in
	// delimiter mode (contributes to detection loss).
	if frags, _ := SplitKeyword(Delimiter, []byte("??????????")); frags != nil {
		t.Fatalf("pure-delimiter keyword yielded fragments %q", frags)
	}
}

func TestSplitKeywordFragmentsReconstruct(t *testing.T) {
	// Property: fragments laid at their relative offsets reproduce the
	// keyword bytes they cover, for both modes.
	f := func(raw []byte) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		for _, mode := range []Mode{Window, Delimiter} {
			frags, rel := SplitKeyword(mode, raw)
			for i, fr := range frags {
				n := TokenSize
				if rel[i]+n > len(raw) {
					n = len(raw) - rel[i]
				}
				if !bytes.Equal(fr[:n], raw[rel[i]:rel[i]+n]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDelimiterBandwidthBelowWindow(t *testing.T) {
	// Delimiter tokenization must emit substantially fewer tokens than
	// window tokenization on typical text (paper Fig. 5: 2.5x vs 4x median
	// total overhead).
	text := bytes.Repeat([]byte(
		"GET /index.html?q=hello&lang=en HTTP/1.1\r\nHost: www.example.com\r\n"+
			"<div class=\"story\">The quick brown fox jumps over the lazy dog near the riverbank</div>\n"), 20)
	w := len(TokenizeAll(Window, text))
	d := len(TokenizeAll(Delimiter, text))
	if d >= w {
		t.Fatalf("delimiter tokens (%d) not fewer than window tokens (%d)", d, w)
	}
	if float64(d) > 0.8*float64(w) {
		t.Fatalf("delimiter tokens (%d) not substantially fewer than window (%d)", d, w)
	}
}

func TestIsDelimiter(t *testing.T) {
	for _, b := range []byte("abcXYZ019_-") {
		if IsDelimiter(b) {
			t.Errorf("%q wrongly classified as delimiter", b)
		}
	}
	for _, b := range []byte(" .?&=/:;\r\n\t!\"'<>") {
		if !IsDelimiter(b) {
			t.Errorf("%q wrongly classified as non-delimiter", b)
		}
	}
}

func TestAppendAfterFlushPanics(t *testing.T) {
	tk := New(Window)
	tk.Flush()
	defer func() {
		if recover() == nil {
			t.Fatal("Append after Flush must panic")
		}
	}()
	tk.Append([]byte("x"))
}

func TestFlushTwicePanics(t *testing.T) {
	tk := New(Delimiter)
	tk.Flush()
	defer func() {
		if recover() == nil {
			t.Fatal("double Flush must panic")
		}
	}()
	tk.Flush()
}

func TestSkipBinaryContent(t *testing.T) {
	// text | 1000 bytes binary | text: offsets after the gap must account
	// for the skipped bytes, the boundary must not form tokens, and the
	// first word after the gap must be anchored.
	for _, mode := range []Mode{Window, Delimiter} {
		tk := New(mode)
		var toks []Token
		toks = append(toks, tk.Append([]byte("evilword1 before"))...)
		toks = append(toks, tk.Skip(1000)...)
		toks = append(toks, tk.Append([]byte("evilword2 after"))...)
		toks = append(toks, tk.Flush()...)

		set := tokenSet(toks)
		var w1, w2 Token
		copy(w1.Text[:], "evilword")
		w1.Offset = 0
		copy(w2.Text[:], "evilword")
		w2.Offset = len("evilword1 before") + 1000
		if !set[w1] {
			t.Errorf("mode %v: missing pre-gap token", mode)
		}
		if !set[w2] {
			t.Errorf("mode %v: missing post-gap token at adjusted offset (got %v)", mode, toks)
		}
		for _, tok := range toks {
			if tok.Offset > 10 && tok.Offset < len("evilword1 before")+1000 {
				t.Errorf("mode %v: token emitted inside the binary gap: %+v", mode, tok)
			}
		}
	}
}

func TestSkipZeroActsAsSegmentBreak(t *testing.T) {
	tk := New(Delimiter)
	var toks []Token
	toks = append(toks, tk.Append([]byte("abcdefgh"))...)
	toks = append(toks, tk.Skip(0)...)
	toks = append(toks, tk.Append([]byte("ijklmnop"))...)
	toks = append(toks, tk.Flush()...)
	set := tokenSet(toks)
	var second Token
	copy(second.Text[:], "ijklmnop")
	second.Offset = 8
	if !set[second] {
		t.Fatalf("post-break word not anchored: %v", toks)
	}
	// No token may span the break.
	for _, tok := range toks {
		if tok.Offset < 8 && tok.Offset+TokenSize > 8 && tok.Text[7] != Pad {
			for i := tok.Offset; i < 8; i++ {
				if tok.Text[i-tok.Offset] != "abcdefgh"[i] {
					t.Fatalf("token spans the segment break: %+v", tok)
				}
			}
		}
	}
}

// TestIntoFormsMatchAndReuse pins the two ownership contracts: the Into
// forms produce exactly the tokens of Append/Skip/Flush inside the buffer
// they were handed, and the plain forms keep returning memory of their own.
func TestIntoFormsMatchAndReuse(t *testing.T) {
	text := []byte("GET /login.php?user=admin&pass=x HTTP/1.1\r\nHost: example.com\r\n\r\n")
	for _, mode := range []Mode{Window, Delimiter} {
		plain, into := New(mode), New(mode)
		buf := make([]Token, 0, 4*len(text))
		var kept [][]Token
		step := func(want, got []Token) {
			t.Helper()
			if len(want) != len(got) || (len(want) > 0 && !reflect.DeepEqual(want, got)) {
				t.Fatalf("%s: Into form produced %v, plain form %v", mode, got, want)
			}
			if len(got) > 0 && &got[0] != &buf[:1][0] {
				t.Fatalf("%s: Into form left the caller's buffer", mode)
			}
			kept = append(kept, want)
		}
		step(plain.Append(text[:20]), into.AppendInto(buf, text[:20]))
		step(plain.Append(text[20:]), into.AppendInto(buf, text[20:]))
		step(plain.Skip(100), into.SkipInto(buf, 100))
		step(plain.Append(text), into.AppendInto(buf, text))
		step(plain.Flush(), into.FlushInto(buf))

		// What Append returned earlier is still what it was: later calls
		// did not write into it.
		again := New(mode)
		if first := again.Append(text[:20]); !reflect.DeepEqual(first, kept[0]) && len(first)+len(kept[0]) > 0 {
			t.Fatalf("%s: a slice returned by Append changed under later calls", mode)
		}
	}
}

// refTokenizer is the tokenizer written for obviousness, and the reference
// the one-pass Tokenizer is held to token for token: it visits every
// position, asks wordStart / runStart / boundary about it — each of which
// looks at the neighbouring bytes through IsDelimiter and
// IsKeywordDelimiter — and copies token bytes one slice at a time.
type refTokenizer struct {
	mode Mode
	// buf is one byte of history followed by the unprocessed bytes; base
	// is the stream offset of buf[0] and proc the first unprocessed index.
	buf        []byte
	base, proc int
	// segStart is the offset at which the current text segment began.
	segStart int
}

func (t *refTokenizer) Append(data []byte) []Token {
	t.buf = append(t.buf, data...)
	toks := t.drain(false)
	if keep := t.proc - 1; keep > 0 {
		t.buf = append(t.buf[:0], t.buf[keep:]...)
		t.base += keep
		t.proc -= keep
	}
	return toks
}

func (t *refTokenizer) Flush() []Token { return t.drain(true) }

func (t *refTokenizer) Skip(n int) []Token {
	toks := t.drain(true)
	t.base += len(t.buf) + n
	t.buf, t.proc, t.segStart = t.buf[:0], 0, t.base
	return toks
}

func paddedToken(word []byte, offset int) Token {
	var tok Token
	copy(tok.Text[:], word) // remainder stays Pad
	tok.Offset = offset
	return tok
}

// wordStart: a non-delimiter byte at the segment start or after a
// delimiter.
func (t *refTokenizer) wordStart(o int) bool {
	if IsDelimiter(t.buf[o]) {
		return false
	}
	return t.base+o == t.segStart || IsDelimiter(t.buf[o-1])
}

// runStart: the first byte of a delimiter run, if it can start a keyword.
func (t *refTokenizer) runStart(o int) bool {
	if !IsKeywordDelimiter(t.buf[o]) {
		return false
	}
	return t.base+o == t.segStart || !IsDelimiter(t.buf[o-1])
}

// boundary: a keyword can end before buffer index e — a word/delimiter
// transition, or a position right after a keyword delimiter.
func (t *refTokenizer) boundary(e int) bool {
	if t.base+e == t.segStart {
		return false
	}
	if IsDelimiter(t.buf[e]) != IsDelimiter(t.buf[e-1]) {
		return true
	}
	return IsDelimiter(t.buf[e]) && IsKeywordDelimiter(t.buf[e-1])
}

func (t *refTokenizer) drain(final bool) (toks []Token) {
	n := len(t.buf)
	if t.mode == Window {
		for ; t.proc+TokenSize <= n; t.proc++ {
			toks = append(toks, paddedToken(t.buf[t.proc:t.proc+TokenSize], t.base+t.proc))
		}
		if final {
			t.proc = n
		}
		return toks
	}
	for ; t.proc < n; t.proc++ {
		o := t.proc
		if !final && o+TokenSize > n {
			break // need TokenSize bytes of lookahead to decide emissions
		}
		abs := t.base + o
		ws, rs := t.wordStart(o), t.runStart(o)
		if !ws && !rs {
			continue
		}
		if ws && o+TokenSize <= n {
			toks = append(toks, paddedToken(t.buf[o:o+TokenSize], abs))
		}
		limit := 2
		if rs {
			limit = maxShortBoundaries
		}
		emitted := 0
		for e := o + 2; e < min(o+TokenSize, n) && emitted < limit; e++ {
			if t.boundary(e) {
				toks = append(toks, paddedToken(t.buf[o:e], abs))
				emitted++
			}
		}
		if final && n < o+TokenSize && emitted < limit {
			// Word or delimiter run truncated by end-of-stream.
			toks = append(toks, paddedToken(t.buf[o:n], abs))
		}
	}
	return toks
}

// tokenizeOp is one call on a tokenizer: Append(data) when skip < 0, else
// Skip(skip).
type tokenizeOp struct {
	data []byte
	skip int
}

// checkAgainstModel runs ops and a final Flush through the Tokenizer and the
// reference and compares what every single call returns.
func checkAgainstModel(t testing.TB, mode Mode, ops []tokenizeOp) {
	t.Helper()
	tk, ref := New(mode), &refTokenizer{mode: mode}
	var buf []Token
	for i, op := range ops {
		var got, want []Token
		if op.skip >= 0 {
			got, want = tk.SkipInto(buf, op.skip), ref.Skip(op.skip)
		} else {
			got, want = tk.AppendInto(buf, op.data), ref.Append(op.data)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s, call %d of %d (%q, skip %d): tokenizer returned %v, the model %v", mode, i, len(ops), op.data, op.skip, got, want)
		}
		if len(got) > MaxTokens(len(op.data)) {
			t.Fatalf("%s, call %d of %d (%q, skip %d): %d tokens, over MaxTokens = %d", mode, i, len(ops), op.data, op.skip, len(got), MaxTokens(len(op.data)))
		}
		buf = got
	}
	got, want := tk.FlushInto(buf), ref.Flush()
	if !slices.Equal(got, want) {
		t.Fatalf("%s, Flush after %d calls: tokenizer returned %v, the model %v", mode, len(ops), got, want)
	}
	if len(got) > MaxTokens(0) {
		t.Fatalf("%s, Flush after %d calls: %d tokens, over MaxTokens = %d", mode, len(ops), len(got), MaxTokens(0))
	}
}

// TestMaxTokensIsReached: the bound on an Append is tight. Alternating word
// bytes and keyword delimiters make every position an anchor with three
// tokens, and an Append after the first TokenSize-1 bytes decides as many
// positions as it was given.
func TestMaxTokensIsReached(t *testing.T) {
	data := bytes.Repeat([]byte("a?"), 4096)
	tk := New(Delimiter)
	tk.Append(data[:TokenSize-1])
	n := len(data) - (TokenSize - 1)
	if got := tk.Append(data[TokenSize-1:]); len(got) != MaxTokens(n) {
		t.Fatalf("Append of %d bytes: %d tokens, want MaxTokens = %d", n, len(got), MaxTokens(n))
	}
}

// splitAt is data as Append calls cut at the given offsets; a negative cut
// -c cuts at c and puts a Skip of c%5 bytes there (a zero-length Skip is a
// segment break).
func splitAt(data []byte, cuts ...int) []tokenizeOp {
	var ops []tokenizeOp
	prev := 0
	for _, c := range cuts {
		skip := -1
		if c < 0 {
			c = -c
			skip = c % 5
		}
		c = min(max(c, prev), len(data))
		ops = append(ops, tokenizeOp{data: data[prev:c], skip: -1})
		if skip >= 0 {
			ops = append(ops, tokenizeOp{skip: skip})
		}
		prev = c
	}
	return append(ops, tokenizeOp{data: data[prev:], skip: -1})
}

// checkEverySplit compares on data in one piece and cut in two at every
// point, by an Append boundary and by a Skip.
func checkEverySplit(t testing.TB, data []byte) {
	t.Helper()
	for _, mode := range []Mode{Window, Delimiter} {
		checkAgainstModel(t, mode, splitAt(data))
		for cut := 1; cut < len(data); cut++ {
			checkAgainstModel(t, mode, splitAt(data, cut))
			checkAgainstModel(t, mode, splitAt(data, -cut))
		}
	}
}

// TestTokenizerMatchesModelOnClassStrings is the exhaustive half of the
// differential test, over one word byte, one plain delimiter and one keyword
// delimiter: every string of up to 9 bytes — a window, its lookahead byte
// and whatever a call boundary leaves behind — and, up to length 12, every
// triple of classes at every position of every uniform run. Each string is
// checked at every split point.
func TestTokenizerMatchesModelOnClassStrings(t *testing.T) {
	alphabet := []byte("a ?")
	exhaustive := 9
	if testing.Short() {
		exhaustive = 7
	}
	data := make([]byte, 0, 12)
	var rec func()
	rec = func() {
		checkEverySplit(t, data)
		if len(data) == exhaustive {
			return
		}
		for _, b := range alphabet {
			data = append(data, b)
			rec()
			data = data[:len(data)-1]
		}
	}
	rec()

	for n := exhaustive + 1; n <= 12; n++ {
		for _, fill := range alphabet {
			for at := 0; at+3 <= n; at++ {
				for triple := 0; triple < 27; triple++ {
					data = append(data[:0], bytes.Repeat([]byte{fill}, n)...)
					data[at], data[at+1], data[at+2] = alphabet[triple%3], alphabet[triple/3%3], alphabet[triple/9]
					checkEverySplit(t, data)
				}
			}
		}
	}
}

// TestTokenizerMatchesModelOnText is the other half: synthesized page text
// and random bytes (every byte value, so every row of the class table), in
// records, in random small pieces and with Skip gaps.
func TestTokenizerMatchesModelOnText(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	random := make([]byte, 8<<10)
	rng.Read(random)
	page := bytes.Repeat([]byte("GET /login.php?user=alice&pass=x HTTP/1.1\r\nHost: www.example.com\r\n"+
		"<div class=\"story\">The quick-brown fox_jumps over; the lazy dog...</div>\n\x00\xff"), 40)
	for _, data := range [][]byte{page, random} {
		for _, mode := range []Mode{Window, Delimiter} {
			checkAgainstModel(t, mode, splitAt(data))
			for _, size := range []int{1, 7, 8, 9, 16, 1000} {
				var cuts []int
				for c := size; c < len(data); c += size {
					cuts = append(cuts, c)
				}
				checkAgainstModel(t, mode, splitAt(data, cuts...))
			}
			for round := 0; round < 20; round++ {
				var cuts []int
				for c := rng.Intn(30); c < len(data); c += 1 + rng.Intn(30) {
					if cuts = append(cuts, c); rng.Intn(8) == 0 {
						cuts[len(cuts)-1] = -c
					}
				}
				checkAgainstModel(t, mode, splitAt(data, cuts...))
			}
		}
	}
}
