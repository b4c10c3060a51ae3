package ahocorasick

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func pats(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// naive finds all matches by brute force.
func naive(patterns [][]byte, data []byte) []Match {
	var out []Match
	for end := 1; end <= len(data); end++ {
		for pi, p := range patterns {
			if len(p) > 0 && end >= len(p) && bytes.Equal(data[end-len(p):end], p) {
				out = append(out, Match{Pattern: pi, End: end})
			}
		}
	}
	return out
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].End != ms[j].End {
			return ms[i].End < ms[j].End
		}
		return ms[i].Pattern < ms[j].Pattern
	})
}

func TestBasicMatching(t *testing.T) {
	a := New(pats("he", "she", "his", "hers"))
	got := a.FindAll([]byte("ushers"))
	sortMatches(got)
	want := []Match{{Pattern: 1, End: 4}, {Pattern: 0, End: 4}, {Pattern: 3, End: 6}}
	sortMatches(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestMatchStart(t *testing.T) {
	a := New(pats("hers"))
	m := a.FindAll([]byte("ushers"))
	if len(m) != 1 || m[0].Start(a) != 2 {
		t.Fatalf("matches = %v", m)
	}
}

func TestOverlappingAndNested(t *testing.T) {
	a := New(pats("aa", "aaa"))
	got := a.FindAll([]byte("aaaa"))
	// "aa" at ends 2,3,4; "aaa" at ends 3,4.
	if len(got) != 5 {
		t.Fatalf("got %d matches: %v", len(got), got)
	}
}

func TestAgainstNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := []byte("abc")
		np := 1 + rng.Intn(5)
		patterns := make([][]byte, np)
		for i := range patterns {
			p := make([]byte, 1+rng.Intn(4))
			for j := range p {
				p[j] = alphabet[rng.Intn(len(alphabet))]
			}
			patterns[i] = p
		}
		data := make([]byte, rng.Intn(64))
		for j := range data {
			data[j] = alphabet[rng.Intn(len(alphabet))]
		}
		a := New(patterns)
		got := a.FindAll(data)
		want := naive(patterns, data)
		sortMatches(got)
		sortMatches(want)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingEqualsOneShot(t *testing.T) {
	a := New(pats("needle", "edl", "haystack"))
	data := []byte("haystack with a needle inside another needle haystack")
	want := a.FindAll(data)
	for _, chunk := range []int{1, 2, 3, 7} {
		s := a.NewScanner()
		var got []Match
		for i := 0; i < len(data); i += chunk {
			end := i + chunk
			if end > len(data) {
				end = len(data)
			}
			got = append(got, s.Scan(data[i:end])...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: %v != %v", chunk, got, want)
		}
		if s.Offset() != len(data) {
			t.Fatalf("offset = %d", s.Offset())
		}
	}
}

func TestSkipBreaksMatchesAndKeepsOffsets(t *testing.T) {
	a := New(pats("needle"))
	s := a.NewScanner()
	if got := s.Scan([]byte("a nee")); len(got) != 0 {
		t.Fatalf("partial keyword matched: %v", got)
	}
	s.Skip(100)
	if got := s.Scan([]byte("dle")); len(got) != 0 {
		t.Fatalf("keyword matched across a skipped gap: %v", got)
	}
	got := s.Scan([]byte(" needle"))
	if len(got) != 1 || got[0].End != 5+100+3+7 {
		t.Fatalf("matches after the gap = %v, want one ending at %d", got, 5+100+3+7)
	}
	if s.Offset() != 5+100+3+7 {
		t.Fatalf("offset = %d", s.Offset())
	}
}

func TestEmptyAndDuplicatePatterns(t *testing.T) {
	a := New(pats("", "dup", "dup"))
	got := a.FindAll([]byte("a dup b"))
	if len(got) != 2 {
		t.Fatalf("duplicate patterns must both report: %v", got)
	}
	if a.NumPatterns() != 3 {
		t.Fatalf("NumPatterns = %d", a.NumPatterns())
	}
}

func TestContains(t *testing.T) {
	a := New(pats("evil"))
	if !a.Contains([]byte("some evil here")) {
		t.Fatal("Contains missed a match")
	}
	if a.Contains([]byte("all good")) {
		t.Fatal("Contains false positive")
	}
}

func TestBinaryPatterns(t *testing.T) {
	a := New([][]byte{{0x00, 0xFF, 0x80}})
	data := []byte{1, 2, 0x00, 0xFF, 0x80, 3}
	got := a.FindAll(data)
	if len(got) != 1 || got[0].End != 5 {
		t.Fatalf("binary match failed: %v", got)
	}
}

func TestLargePatternSetStates(t *testing.T) {
	var patterns [][]byte
	for i := 0; i < 500; i++ {
		patterns = append(patterns, []byte(strings.Repeat(string(rune('a'+i%26)), 3+i%5)+"x"))
	}
	a := New(patterns)
	if a.NumStates() < 100 {
		t.Fatalf("suspiciously few states: %d", a.NumStates())
	}
	// Smoke: scanning random data does not panic and finds planted needle.
	data := append([]byte("junk "), patterns[123]...)
	found := false
	for _, m := range a.FindAll(data) {
		if m.Pattern == 123 {
			found = true
		}
	}
	if !found {
		t.Fatal("planted pattern missed")
	}
}
