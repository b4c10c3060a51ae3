package tokenize

import (
	"reflect"
	"testing"
)

// FuzzStreamingEquivalence feeds arbitrary bytes in arbitrary chunkings
// and checks the core tokenizer invariant: streaming equals one-shot.
func FuzzStreamingEquivalence(f *testing.F) {
	f.Add([]byte("GET /a?b=c HTTP/1.1\r\n\r\n"), uint8(3), uint8(0))
	f.Add([]byte("x"), uint8(1), uint8(1))
	f.Add([]byte("?user=alice&pass=x maliciously formed..!!"), uint8(7), uint8(1))
	f.Add([]byte{0, 1, 2, 255, 254, 'a', 'b', ' '}, uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8, modeByte uint8) {
		if len(data) > 4096 {
			return
		}
		mode := Window
		if modeByte%2 == 1 {
			mode = Delimiter
		}
		c := int(chunk%16) + 1
		want := TokenizeAll(mode, data)
		tk := New(mode)
		var got []Token
		for i := 0; i < len(data); i += c {
			end := i + c
			if end > len(data) {
				end = len(data)
			}
			got = append(got, tk.Append(data[i:end])...)
		}
		got = append(got, tk.Flush()...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunked tokenization diverged (mode %v, chunk %d)", mode, c)
		}
		// Offsets are within bounds and non-decreasing.
		last := -1
		for _, tok := range want {
			if tok.Offset < 0 || tok.Offset >= len(data) {
				t.Fatalf("token offset %d out of range", tok.Offset)
			}
			if tok.Offset < last {
				t.Fatal("token offsets not monotone")
			}
			last = tok.Offset
		}
	})
}

// FuzzSplitKeywordConsistency checks fragment/offset invariants on
// arbitrary keywords.
func FuzzSplitKeywordConsistency(f *testing.F) {
	f.Add([]byte("maliciously"), uint8(0))
	f.Add([]byte("?user="), uint8(1))
	f.Add([]byte("Content-Type: text/html"), uint8(1))
	f.Fuzz(func(t *testing.T, kw []byte, modeByte uint8) {
		if len(kw) > 512 {
			return
		}
		mode := Window
		if modeByte%2 == 1 {
			mode = Delimiter
		}
		frags, rel := SplitKeyword(mode, kw)
		if len(frags) != len(rel) {
			t.Fatal("fragments and offsets misaligned")
		}
		for i, at := range rel {
			if at < 0 || at >= len(kw) {
				t.Fatalf("fragment offset %d out of keyword range", at)
			}
			n := TokenSize
			if at+n > len(kw) {
				n = len(kw) - at
			}
			for j := 0; j < n; j++ {
				if frags[i][j] != kw[at+j] {
					t.Fatal("fragment bytes diverge from keyword")
				}
			}
		}
	})
}

// FuzzTokenizeMatchesModel holds the one-pass tokenizer to the reference
// model of tokenize_test.go, call by call, on arbitrary bytes cut into
// Append calls of chunk bytes; the i-th cut is also a Skip when bit i%8 of
// skips is set.
func FuzzTokenizeMatchesModel(f *testing.F) {
	f.Add([]byte("GET /login.php?user=alice&pass=x HTTP/1.1\r\nHost: ex.com\r\n\r\n"), uint8(15), uint8(0), uint8(1))
	f.Add([]byte("a ?a ??aa  ?a?a? a  ??aaaaaaaaa?        a"), uint8(0), uint8(0x55), uint8(1))
	f.Add([]byte("aaaaaaa?aaaaaaaa aaaaaaaaa"), uint8(7), uint8(0xff), uint8(1))
	f.Add([]byte("?=&/:.;|@%+$\\ \t\"'<>-_09azAZ\x00\xff"), uint8(2), uint8(4), uint8(1))
	f.Add([]byte("alice apple sliding windows"), uint8(8), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, chunk, skips, modeByte uint8) {
		if len(data) > 4096 {
			return
		}
		mode := Window
		if modeByte%2 == 1 {
			mode = Delimiter
		}
		var cuts []int
		for c, i := int(chunk%16)+1, 0; c < len(data); c, i = c+int(chunk%16)+1, i+1 {
			if cuts = append(cuts, c); skips>>(i%8)&1 == 1 {
				cuts[i] = -c
			}
		}
		checkAgainstModel(t, mode, splitAt(data, cuts...))
	})
}
