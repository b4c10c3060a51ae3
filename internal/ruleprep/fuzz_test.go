package ruleprep

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/circuit"
	"repro/internal/garble"
)

// FuzzUnmarshalCircuitMsg checks that the circuit message is canonical:
// every message ParseCircuitMsg accepts is exactly what AppendCircuitMsg
// writes for the job it parses to, and the job's digest is the message's
// SHA-256. That is what lets the middlebox compare a digest of the server's
// bytes with the client's digest in place of the circuits themselves.
func FuzzUnmarshalCircuitMsg(f *testing.F) {
	b := circuit.NewBuilder(2)
	x, y := b.Input(0), b.Input(1)
	g, _, err := garble.Garble(b.Build([]circuit.Ref{b.AND(x, y), b.XOR(x, y)}), FixedGarblingKey, bbcrypto.NewPRG(bbcrypto.Block{1}))
	if err != nil {
		f.Fatal(err)
	}
	msg := (&FragmentJob{Index: 3, G: g, EndpointLabels: make([]bbcrypto.Block, 2)}).AppendCircuitMsg(nil)
	f.Add(msg)
	f.Add(append(bytes.Clone(msg), 0))    // a trailing byte
	f.Add(bytes.Clone(msg[:len(msg)-16])) // a label short
	f.Add([]byte{})
	f.Add(make([]byte, 8))
	f.Fuzz(func(t *testing.T, msg []byte) {
		job, err := ParseCircuitMsg(msg)
		if err != nil {
			return
		}
		if again := job.AppendCircuitMsg(nil); !bytes.Equal(again, msg) {
			t.Fatalf("accepted %d bytes that encode back to %d different bytes", len(msg), len(again))
		}
		if job.Digest != sha256.Sum256(msg) {
			t.Fatal("digest is not the message's SHA-256")
		}
	})
}
