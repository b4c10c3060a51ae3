package garble_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/garble"
	"repro/internal/ruleprep"
)

// TestGarbledFIsPinned pins the bytes of one garbled F, the circuit every
// connection garbles, under the key every connection uses. smallCircuit's
// pin (TestGarbledBytesArePinned) covers a dozen gates; this one covers
// F's 62 239, negated AND inputs among them, and also runs under -tags
// purego, so neither the AES kernel nor the label arithmetic may move a byte.
func TestGarbledFIsPinned(t *testing.T) {
	g, labels, err := garble.Garble(ruleprep.F(), ruleprep.FixedGarblingKey, bbcrypto.NewPRG(bbcrypto.Block{'F', 7}))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append(g.Marshal(), labels.R[:]...))
	const want = "f49a8af0d9e0630f3ad7a6bc61686974b15f69c2843f7a1ee3206e14ef4129db"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("garbled F hashes to %s, want %s", got, want)
	}
}
