package detect

import (
	"fmt"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/dpienc"
	"repro/internal/rules"
	"repro/internal/tokenize"
)

const fuzzRules = `alert tcp any any -> any any (msg:"kw"; content:"malwarepayload"; sid:1;)
alert tcp any any -> any any (msg:"pair"; content:"attackvector"; content:"exfiltrated"; sid:2;)
`

// FuzzIndexConsistency drives an engine with a stream — genuine encrypted
// tokens or adversarial raw ciphertexts, followed by a counter reset and a
// genuine stream — and after every token holds the table to its invariant
// (checkTable): every fragment in exactly one slot, reachable from the home
// slot of its current ciphertext.
func FuzzIndexConsistency(f *testing.F) {
	f.Add([]byte("malwarepayload"), uint64(0), false)
	f.Add([]byte("xx attackvector yy exfiltrated zz"), uint64(1234), false)
	f.Add([]byte("malwarepayload malwarepayload"), uint64(1)<<39, true)
	f.Add([]byte{0, 1, 2, 3, 4, 255, 254, 253, 252, 251}, ^uint64(0)-64, true)
	f.Fuzz(func(t *testing.T, data []byte, salt0 uint64, adversarial bool) {
		if len(data) > 4096 {
			return
		}
		rs, err := rules.Parse("fuzz", fuzzRules)
		if err != nil {
			t.Fatal(err)
		}
		var k bbcrypto.Block
		copy(k[:], "fuzz-detection-k")
		mode := tokenize.Window
		eng := NewEngine(rs, keysFor(k, rs, mode), Config{
			Mode: mode, Protocol: dpienc.ProtocolII, Salt0: salt0,
		})
		var stream []dpienc.EncryptedToken
		if adversarial {
			// Raw windows of the input as C1: the middlebox must handle
			// arbitrary attacker-chosen wire ciphertexts.
			for i := 0; i+dpienc.CiphertextSize <= len(data) && len(stream) < 512; i += dpienc.CiphertextSize {
				var c dpienc.Ciphertext
				copy(c[:], data[i:])
				stream = append(stream, dpienc.EncryptedToken{C1: c, Offset: i})
			}
		} else {
			s := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, salt0)
			stream = s.EncryptTokensInto(nil, tokenize.TokenizeAll(mode, data))
		}
		for i := range stream {
			eng.ScanBatch(stream[i:i+1], nil)
			checkTable(t, eng, fmt.Sprintf("token %d", i))
		}

		// A mid-connection reset rebuilds the table; it must keep up on a
		// genuine stream afterwards.
		eng.Reset(salt0 + 1)
		checkTable(t, eng, "reset")
		s := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, salt0+1)
		post := s.EncryptTokensInto(nil, tokenize.TokenizeAll(mode, data))
		for i := range post {
			eng.ScanBatch(post[i:i+1], nil)
			checkTable(t, eng, fmt.Sprintf("post-reset token %d", i))
		}
	})
}
