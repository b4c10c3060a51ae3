package detect_test

import (
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dpienc"
	"repro/internal/rules"
	"repro/internal/tokenize"
)

const fuzzRules = `alert tcp any any -> any any (msg:"kw"; content:"malwarepayload"; sid:1;)
alert tcp any any -> any any (msg:"pair"; content:"attackvector"; content:"exfiltrated"; sid:2;)
`

// FuzzIndexConsistency drives the tree and hash search structures with the
// same stream — genuine encrypted tokens or adversarial raw ciphertexts,
// followed by a counter reset — and demands identical detection behavior
// plus a balanced tree (every Update's delete matched by its insert).
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
		keys := core.DirectTokenKeys(k, rs, mode)
		newEngine := func(idx detect.Index) *detect.Engine {
			return detect.NewEngine(rs, keys, detect.Config{
				Mode: mode, Protocol: dpienc.ProtocolII, Salt0: salt0, Index: idx,
			})
		}
		treeIdx := detect.NewTreeIndex()
		engTree := newEngine(treeIdx)
		engHash := newEngine(detect.NewHashIndex())

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
			if !sameEvents(engTree.ProcessToken(et), engHash.ProcessToken(et)) {
				t.Fatalf("token %d: tree and hash engines diverged", i)
			}
			if treeIdx.Len() != engTree.NumFragments() {
				t.Fatalf("token %d: tree holds %d nodes, want %d", i, treeIdx.Len(), engTree.NumFragments())
			}
		}

		// A mid-connection reset rebuilds both indexes; the engines must
		// keep agreeing on a genuine stream afterwards.
		engTree.Reset(salt0 + 1)
		engHash.Reset(salt0 + 1)
		s := dpienc.NewSender(k, bbcrypto.Block{}, dpienc.ProtocolII, salt0+1)
		for i, et := range s.EncryptTokensInto(nil, tokenize.TokenizeAll(mode, data)) {
			if !sameEvents(engTree.ProcessToken(et), engHash.ProcessToken(et)) {
				t.Fatalf("post-reset token %d: tree and hash engines diverged", i)
			}
		}
	})
}

func sameEvents(a, b []detect.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Rule.SID != b[i].Rule.SID ||
			a[i].KeywordIndex != b[i].KeywordIndex || a[i].Offset != b[i].Offset {
			return false
		}
	}
	return true
}
