package garble

import (
	"testing"

	"repro/internal/bbcrypto"
)

// FuzzUnmarshal checks garbled-circuit parsing never panics on arbitrary
// bytes and that accepted inputs round-trip.
func FuzzUnmarshal(f *testing.F) {
	g, _, err := Garble(smallCircuit(), bbcrypto.Block{1}, bbcrypto.NewPRG(bbcrypto.Block{1}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(g.Marshal()) // Rows = 2
	f.Add([]byte{})
	f.Add(make([]byte, 21))
	grr, _, err := GarbleWith(smallCircuit(), bbcrypto.Block{1}, bbcrypto.NewPRG(bbcrypto.Block{1}), Options{GRR3: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(grr.Marshal()) // Rows = 3
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unmarshal(data)
		if err != nil {
			return
		}
		again, err := Unmarshal(got.Marshal())
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if !Equal(got, again) {
			t.Fatal("garbled circuit round trip diverged")
		}
	})
}
