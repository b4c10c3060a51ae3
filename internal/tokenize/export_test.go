package tokenize

import "testing"

// CheckAgainstModel lets the external test package, which may import the
// corpus, hold the tokenizer to the reference model of tokenize_test.go on
// data cut at cuts (see splitAt).
func CheckAgainstModel(t testing.TB, mode Mode, data []byte, cuts ...int) {
	t.Helper()
	checkAgainstModel(t, mode, splitAt(data, cuts...))
}
