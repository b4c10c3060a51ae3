package dpienc

import (
	"math/rand"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/tokenize"
)

// randomStream builds a seeded token stream with plenty of repeats, so the
// counter table exercises multi-occurrence salts.
func randomStream(rng *rand.Rand, n int) []tokenize.Token {
	vocab := make([][tokenize.TokenSize]byte, 1+rng.Intn(8))
	for i := range vocab {
		rng.Read(vocab[i][:])
	}
	toks := make([]tokenize.Token, n)
	off := 0
	for i := range toks {
		toks[i].Text = vocab[rng.Intn(len(vocab))]
		toks[i].Offset = off
		off += 1 + rng.Intn(4)
	}
	return toks
}

func tokensEqual(a, b EncryptedToken) bool {
	return a.C1 == b.C1 && a.C2 == b.C2 && a.Offset == b.Offset
}

// TestEncryptTokensMatchesEncryptToken is the batch/sequential differential
// property: for 1k randomized seeded streams, EncryptTokensInto
// over any partition of the stream yields exactly the per-token
// EncryptToken results, under every protocol.
func TestEncryptTokensMatchesEncryptToken(t *testing.T) {
	k := bbcrypto.DeriveBlock([]byte("batch-test"), "k")
	kSSL := bbcrypto.DeriveBlock([]byte("batch-test"), "kssl")
	for iter := 0; iter < 1000; iter++ {
		rng := rand.New(rand.NewSource(int64(iter)))
		proto := Protocol(1 + iter%3)
		salt0 := rng.Uint64() >> 1
		stream := randomStream(rng, 1+rng.Intn(96))

		seq := NewSender(k, kSSL, proto, salt0)
		want := make([]EncryptedToken, len(stream))
		for i, tok := range stream {
			want[i] = seq.EncryptToken(tok)
		}

		batch := NewSender(k, kSSL, proto, salt0)
		var buf []EncryptedToken
		var got []EncryptedToken
		for off := 0; off < len(stream); {
			n := 1 + rng.Intn(len(stream)-off)
			buf = batch.EncryptTokensInto(buf, stream[off:off+n])
			got = append(got, buf...)
			off += n
		}

		if len(got) != len(want) {
			t.Fatalf("iter %d: %d batch tokens, want %d", iter, len(got), len(want))
		}
		for i := range want {
			if !tokensEqual(got[i], want[i]) {
				t.Fatalf("iter %d proto %s: token %d differs: %+v vs %+v",
					iter, proto, i, got[i], want[i])
			}
		}
		// Counter tables must have advanced identically: what the two
		// senders emit for the same stream again depends on every counter.
		if seq.maxCt != batch.maxCt {
			t.Fatalf("iter %d: max counters diverged", iter)
		}
		again := batch.EncryptTokensInto(buf, stream)
		for i, tok := range stream {
			if !tokensEqual(again[i], seq.EncryptToken(tok)) {
				t.Fatalf("iter %d: counter tables diverged at token %d of the second pass", iter, i)
			}
		}
	}
}

// TestEncryptTokensIntoReusesBuffer pins the zero-allocation steady state:
// a large-enough dst is reused, not reallocated.
func TestEncryptTokensIntoReusesBuffer(t *testing.T) {
	s := NewSender(bbcrypto.Block{1}, bbcrypto.Block{2}, ProtocolII, 0)
	rng := rand.New(rand.NewSource(9))
	stream := randomStream(rng, 64)
	dst := make([]EncryptedToken, 0, 128)
	out := s.EncryptTokensInto(dst, stream)
	if &out[0] != &dst[:1][0] {
		t.Fatal("EncryptTokensInto reallocated despite sufficient capacity")
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
		s.EncryptTokensInto(nil, toks)
		s.Reset(1000)
		got := s.EncryptTokensInto(nil, toks)
		want := NewSender(k, kSSL, proto, 1000).EncryptTokensInto(nil, toks)
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
