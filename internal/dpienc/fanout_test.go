package dpienc

import (
	"math/rand"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/tokenize"
)

// TestTunedOutputEqualsSequential is the fan-out conformance property:
// whatever fan-out decision SetFanOut installs, the encrypted token
// stream is byte-for-byte the stream a purely sequential sender produces,
// across all three protocols, random batch sizes, and counter resets.
func TestTunedOutputEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	k := bbcrypto.DeriveBlock([]byte("fanout-prop"), "k")
	kSSL := bbcrypto.DeriveBlock([]byte("fanout-prop"), "kssl")
	for _, proto := range []Protocol{ProtocolI, ProtocolII, ProtocolIII} {
		for _, fan := range []struct{ workers, minBatch int }{
			{1, 0},  // explicit sequential
			{2, 1},  // always parallel
			{4, 64}, // parallel past a threshold: batches straddle it
			{8, 1},  // more workers than meaningful chunks
		} {
			seq := NewSender(k, kSSL, proto, 7)
			tuned := NewSender(k, kSSL, proto, 7)
			tuned.SetFanOut(fan.workers, fan.minBatch)
			seq.SetResetInterval(4096)
			tuned.SetResetInterval(4096)

			var seqOut, tunedOut []EncryptedToken
			offset := 0
			for batch := 0; batch < 50; batch++ {
				n := 1 + rng.Intn(300)
				toks := make([]tokenize.Token, n)
				for i := range toks {
					// A small alphabet forces repeated tokens, so counter
					// ordering is actually exercised.
					toks[i].Text[0] = byte('a' + rng.Intn(8))
					toks[i].Offset = offset
					offset += tokenize.TokenSize
				}
				seqOut = seq.EncryptTokensInto(seqOut, toks)
				tunedOut = tuned.EncryptTokensInto(tunedOut, toks)
				if len(seqOut) != len(tunedOut) {
					t.Fatalf("proto %s fan %+v: length mismatch", proto, fan)
				}
				for i := range seqOut {
					if seqOut[i] != tunedOut[i] {
						t.Fatalf("proto %s fan %+v batch %d: token %d differs:\nseq   %+v\ntuned %+v",
							proto, fan, batch, i, seqOut[i], tunedOut[i])
					}
				}
				s1, r1 := seq.AccountBytes(n * tokenize.TokenSize)
				s2, r2 := tuned.AccountBytes(n * tokenize.TokenSize)
				if s1 != s2 || r1 != r2 {
					t.Fatalf("proto %s fan %+v: reset behavior diverged (%d,%v) vs (%d,%v)",
						proto, fan, s1, r1, s2, r2)
				}
			}
		}
	}
}

// TestSetFanOutNormalizes pins the defensive normalization of degenerate
// knob values.
func TestSetFanOutNormalizes(t *testing.T) {
	s := NewSender(bbcrypto.Block{}, bbcrypto.Block{}, ProtocolI, 0)
	if w, m := s.FanOut(); w != 1 || m != minParallelBatch {
		t.Fatalf("default fan-out = (%d,%d), want (1,%d)", w, m, minParallelBatch)
	}
	s.SetFanOut(-3, -1)
	if w, m := s.FanOut(); w != 1 || m != minParallelBatch {
		t.Fatalf("normalized fan-out = (%d,%d), want (1,%d)", w, m, minParallelBatch)
	}
	s.SetFanOut(4, 200)
	if w, m := s.FanOut(); w != 4 || m != 200 {
		t.Fatalf("fan-out = (%d,%d), want (4,200)", w, m)
	}
}

// TestResetRestartsStream pins what a reset means to an observer: whatever
// state the sender keeps across it (cached key schedules, stale table
// slots), the post-reset stream is the stream of a fresh sender started at
// the new salt0.
func TestResetRestartsStream(t *testing.T) {
	k := bbcrypto.DeriveBlock([]byte("reset-cache"), "k")
	kSSL := bbcrypto.DeriveBlock([]byte("reset-cache"), "kssl")
	toks := []tokenize.Token{tokAt("AAAAAAAA", 0), tokAt("BBBBBBBB", 8), tokAt("AAAAAAAA", 16)}
	for _, proto := range []Protocol{ProtocolII, ProtocolIII} {
		s := NewSender(k, kSSL, proto, 0)
		s.EncryptTokens(toks)
		s.Reset(1000)
		got := s.EncryptTokens(toks)
		want := NewSender(k, kSSL, proto, 1000).EncryptTokens(toks)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("protocol %s: post-reset token %d differs from fresh sender", proto, i)
			}
		}
	}
}

func tokAt(s string, off int) tokenize.Token {
	var t tokenize.Token
	copy(t.Text[:], s)
	t.Offset = off
	return t
}
