package tokenize_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/tokenize"
)

// TestTokenizerMatchesModelOnCorpus: the benchmark's text, tokenized in
// 16 KiB records as Conn.write feeds it and in one piece, against the
// position-by-position reference.
func TestTokenizerMatchesModelOnCorpus(t *testing.T) {
	text := corpus.SynthesizeTextSeeded(23, 256<<10)
	var records []int
	for c := 16 << 10; c < len(text); c += 16 << 10 {
		records = append(records, c)
	}
	for _, mode := range []tokenize.Mode{tokenize.Window, tokenize.Delimiter} {
		tokenize.CheckAgainstModel(t, mode, text)
		tokenize.CheckAgainstModel(t, mode, text, records...)
	}
}
