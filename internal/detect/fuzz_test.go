package detect

import (
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
// genuine stream — and after every token holds the search tree to the
// engine's own list of fragments: one node entry per fragment (every
// Update's delete matched by its insert), each found under its current
// ciphertext.
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
		check := func(when string, i int) {
			t.Helper()
			if eng.index.Len() != len(eng.order) {
				t.Fatalf("%s token %d: tree holds %d entries, want %d", when, i, eng.index.Len(), len(eng.order))
			}
			for _, ent := range eng.order {
				found := false
				for _, hit := range eng.index.Lookup(ent.cur) {
					found = found || hit == ent
				}
				if !found {
					t.Fatalf("%s token %d: fragment %x not found under its current ciphertext", when, i, ent.frag)
				}
			}
		}

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
		for i, et := range stream {
			eng.ProcessToken(et)
			check("", i)
		}

		// A mid-connection reset rebuilds the tree; it must keep up on a
		// genuine stream afterwards.
		eng.Reset(salt0 + 1)
		check("reset", 0)
		s := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, salt0+1)
		for i, et := range s.EncryptTokensInto(nil, tokenize.TokenizeAll(mode, data)) {
			eng.ProcessToken(et)
			check("post-reset", i)
		}
	})
}
