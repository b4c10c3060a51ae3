package dpienc

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/tokenize"
)

// The table's counters and epoch are 32 bits wide; these tests put them next
// to their limits by hand, since no stream a test can afford gets there.

// TestCounterNearLimitForcesReset: SetResetInterval accepts any P, so the
// byte count alone must not let a counter reach 2^32.
func TestCounterNearLimitForcesReset(t *testing.T) {
	k := bbcrypto.DeriveBlock([]byte("wrap"), "k")
	s := NewSender(k, bbcrypto.Block{}, ProtocolIII, 5)
	s.SetResetInterval(1 << 40)
	a := tok("AAAAAAAA", 0)
	s.EncryptToken(a)
	if _, reset := s.AccountBytes(1 << 20); reset {
		t.Fatal("reset although neither the interval nor a counter is near its limit")
	}

	// As if "AAAAAAAA" had occurred 2^30 times under Protocol III.
	s.tab.slot(binary.LittleEndian.Uint64(a.Text[:])).ct = maxCounter
	s.maxCt = maxCounter
	salt0, reset := s.AccountBytes(1)
	if !reset || salt0 != 5+maxCounter+1 {
		t.Fatalf("AccountBytes = (%d, %v) with a counter at 2^31, want a reset to salt0 %d", salt0, reset, uint64(5+maxCounter+1))
	}
	if got, want := s.EncryptToken(a).C1, Encrypt(ComputeTokenKey(k, a.Text), salt0); got != want {
		t.Fatal("the forced reset did not restart the counter at the new salt0")
	}
}

// TestCounterOverflowIsLoud: a caller that never accounts bytes cannot wrap
// a counter onto salts already used without hearing about it.
func TestCounterOverflowIsLoud(t *testing.T) {
	s := NewSender(bbcrypto.Block{1}, bbcrypto.Block{}, ProtocolII, 0)
	a := tok("AAAAAAAA", 0)
	s.tab.slot(binary.LittleEndian.Uint64(a.Text[:])).ct = math.MaxUint32
	defer func() {
		if recover() == nil {
			t.Fatal("a counter wrapped from 2^32-1 to 0 silently")
		}
	}()
	s.EncryptTokensInto(nil, []tokenize.Token{a, a})
}

// TestEpochWrapClearsTable: after 2^32 resets the epoch stamp starts over,
// and no slot stamped in the first round may be mistaken for a current one.
func TestEpochWrapClearsTable(t *testing.T) {
	k := bbcrypto.DeriveBlock([]byte("wrap"), "k")
	s := NewSender(k, bbcrypto.Block{}, ProtocolII, 0)
	toks := []tokenize.Token{tok("AAAAAAAA", 0), tok("BBBBBBBB", 8), tok("AAAAAAAA", 16)}

	s.Reset(10) // epoch 2
	s.EncryptTokensInto(nil, toks)
	stale := s.tab.epoch
	s.tab.epoch = math.MaxUint32
	s.Reset(100) // wraps
	filled := 0
	for _, sl := range s.tab.slots {
		if sl.epoch != 0 {
			filled++
		}
	}
	if s.tab.epoch != 1 || s.tab.live != 0 || filled != 0 {
		t.Fatalf("after the wrap: epoch %d, %d live slots, %d non-empty; want 1, 0 and 0", s.tab.epoch, s.tab.live, filled)
	}
	s.Reset(200) // epoch 2 again: the slots written above would look current
	if s.tab.epoch != stale {
		t.Fatalf("test setup: epoch %d, want %d", s.tab.epoch, stale)
	}
	got := s.EncryptTokensInto(nil, toks)
	want := NewSender(k, bbcrypto.Block{}, ProtocolII, 200).EncryptTokensInto(nil, toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d after the epoch wrapped differs from a fresh sender", i)
		}
	}
}

// TestChunkStampWrapForgetsCache: a cache line's stamp is the number of the
// chunk that last used it, 32 bits wide. When the chunk number wraps, a line
// stamped 2^32 chunks ago must not pass for one this chunk has pinned (its
// conflicting misses would go uncached for no reason) and, above all, the
// schedules handed out afterwards must still be the right ones.
func TestChunkStampWrapForgetsCache(t *testing.T) {
	k := bbcrypto.DeriveBlock([]byte("wrap"), "k")
	s := NewSender(k, bbcrypto.Block{}, ProtocolII, 0)
	toks := make([]tokenize.Token, 3*encChunk)
	for i := range toks {
		toks[i] = tok(string(rune('A'+i%23))+"-stamp-", 8*i)
	}
	s.EncryptTokensInto(nil, toks[:encChunk]) // chunk 1 fills lines
	c := s.cache
	c.chunk = math.MaxUint32 - 1
	got := s.EncryptTokensInto(nil, toks) // chunks 2^32-1, 0 → 1, 2
	if c.chunk != 2 {
		t.Fatalf("chunk number %d after wrapping, want 2", c.chunk)
	}
	fresh := NewSender(k, bbcrypto.Block{}, ProtocolII, 0)
	fresh.EncryptTokensInto(nil, toks[:encChunk])
	want := fresh.EncryptTokensInto(nil, toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d encrypted across the stamp wrap differs from a sender that never wrapped", i)
		}
	}
	for i := range c.entries {
		if e := &c.entries[i]; e.stamp > c.chunk {
			t.Fatalf("line %d still carries stamp %d from before the wrap", i, e.stamp)
		}
	}
}
