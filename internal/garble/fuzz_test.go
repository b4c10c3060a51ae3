package garble

import (
	"bytes"
	"testing"

	"repro/internal/bbcrypto"
)

// FuzzUnmarshal checks garbled-circuit parsing never panics on arbitrary
// bytes and that the blob format is canonical: every input Unmarshal
// accepts is exactly what Marshal writes for the circuit it parses to.
func FuzzUnmarshal(f *testing.F) {
	g, _, err := Garble(smallCircuit(), bbcrypto.Block{1}, bbcrypto.NewPRG(bbcrypto.Block{1}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(g.Marshal()) // Rows = 2
	f.Add([]byte{})
	f.Add(make([]byte, 21))
	rows3 := g.Marshal()
	rows3[16] = 3 // a row count Unmarshal refuses
	f.Add(rows3)
	f.Add(append(g.Marshal(), 0)) // a trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unmarshal(data)
		if err != nil {
			return
		}
		if again := got.Marshal(); !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes that marshal back to %d different bytes", len(data), len(again))
		}
	})
}
