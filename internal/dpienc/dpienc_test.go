package dpienc

import (
	"testing"
	"testing/quick"

	"repro/internal/bbcrypto"
	"repro/internal/tokenize"
)

func tok(s string, off int) tokenize.Token {
	var t tokenize.Token
	copy(t.Text[:], s)
	t.Offset = off
	return t
}

func TestCiphertextUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		v &= 1<<40 - 1
		return CiphertextFromUint64(v).Uint64() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptMatchesMiddleboxView(t *testing.T) {
	// The core detection equation: the sender computes AES_{AES_k(t)}(salt)
	// and the middlebox, holding only AES_k(r) for r == t, must compute the
	// identical ciphertext.
	k := bbcrypto.RandomBlock()
	s := NewSender(k, bbcrypto.Block{}, ProtocolII, 100)
	token := tok("maliciou", 0)
	et := s.EncryptToken(token)

	tk := ComputeTokenKey(k, token.Text) // MB receives this via rule prep
	if Encrypt(tk, 100) != et.C1 {
		t.Fatal("middlebox-side encryption does not match sender ciphertext")
	}
}

func TestEqualTokensGetDistinctCiphertexts(t *testing.T) {
	// §3.2: no two equal tokens may share a salt, so their ciphertexts must
	// differ (randomized encryption property).
	k := bbcrypto.RandomBlock()
	s := NewSender(k, bbcrypto.Block{}, ProtocolI, 0)
	a1 := s.EncryptToken(tok("AAAAAAAA", 0))
	b := s.EncryptToken(tok("BBBBBBBB", 8))
	a2 := s.EncryptToken(tok("AAAAAAAA", 16))
	if a1.C1 == a2.C1 {
		t.Fatal("equal tokens produced equal ciphertexts")
	}
	// And the sequence of salts per token is salt0, salt0+1, ...:
	tk := ComputeTokenKey(k, tok("AAAAAAAA", 0).Text)
	if Encrypt(tk, 0) != a1.C1 || Encrypt(tk, 1) != a2.C1 {
		t.Fatal("counter salts not advancing by one per occurrence")
	}
	tkB := ComputeTokenKey(k, tok("BBBBBBBB", 0).Text)
	if Encrypt(tkB, 0) != b.C1 {
		t.Fatal("first occurrence of a different token must reuse salt0")
	}
}

func TestSaltsNeverRepeatPerToken(t *testing.T) {
	// Property: across many encryptions (with resets), the (token, salt)
	// pairs implied by the protocol never repeat.
	k := bbcrypto.RandomBlock()
	s := NewSender(k, bbcrypto.Block{}, ProtocolI, 0)
	s.SetResetInterval(64)
	seen := make(map[string]map[uint64]bool)
	words := []string{"AAAAAAAA", "BBBBBBBB", "CCCCCCCC"}
	for i := 0; i < 1000; i++ {
		w := words[i%len(words)]
		before := s.countOf(tok(w, 0).Text) + s.salt0
		s.EncryptToken(tok(w, i))
		m := seen[w]
		if m == nil {
			m = make(map[uint64]bool)
			seen[w] = m
		}
		if m[before] {
			t.Fatalf("salt %d reused for token %q at step %d", before, w, i)
		}
		m[before] = true
		s.AccountBytes(13)
	}
}

func TestProtocolIIISSLKeyRecovery(t *testing.T) {
	k := bbcrypto.RandomBlock()
	kSSL := bbcrypto.RandomBlock()
	s := NewSender(k, kSSL, ProtocolIII, 0)
	token := tok("attackkw", 42)
	et := s.EncryptToken(token)

	tk := ComputeTokenKey(k, token.Text)
	// MB matched C1 under salt 0, so C2 was built under salt 1.
	got := RecoverSSLKey(tk, 0, et.C2)
	if got != kSSL {
		t.Fatalf("recovered key %x, want %x", got, kSSL)
	}
}

func TestProtocolIIIWrongKeywordCannotRecover(t *testing.T) {
	k := bbcrypto.RandomBlock()
	kSSL := bbcrypto.RandomBlock()
	s := NewSender(k, kSSL, ProtocolIII, 0)
	et := s.EncryptToken(tok("attackkw", 0))

	wrong := ComputeTokenKey(k, tok("innocent", 0).Text)
	if RecoverSSLKey(wrong, 0, et.C2) == kSSL {
		t.Fatal("non-matching keyword recovered kSSL")
	}
}

func TestProtocolIIIC1C2SaltsDisjoint(t *testing.T) {
	// §5: c1 uses even salts, c2 odd salts; XOR of c1's full block and c2
	// must never cancel to reveal kSSL.
	k := bbcrypto.RandomBlock()
	kSSL := bbcrypto.RandomBlock()
	s := NewSender(k, kSSL, ProtocolIII, 0)
	token := tok("attackkw", 0)
	tk := ComputeTokenKey(k, token.Text)
	for i := 0; i < 16; i++ {
		et := s.EncryptToken(token)
		c1Full := FullBlock(tk, uint64(2*i)) // salt of C1 occurrence i
		if c1Full.XOR(et.C2) == kSSL {
			t.Fatal("C1 and C2 shared a salt: kSSL leaked")
		}
		if RecoverSSLKey(tk, uint64(2*i), et.C2) != kSSL {
			t.Fatalf("occurrence %d: recovery failed", i)
		}
	}
}

func TestCounterTableReset(t *testing.T) {
	k := bbcrypto.RandomBlock()
	s := NewSender(k, bbcrypto.Block{}, ProtocolI, 10)
	s.SetResetInterval(100)
	s.EncryptToken(tok("AAAAAAAA", 0))
	s.EncryptToken(tok("AAAAAAAA", 8))
	if _, reset := s.AccountBytes(50); reset {
		t.Fatal("reset too early")
	}
	newSalt, reset := s.AccountBytes(60)
	if !reset {
		t.Fatal("expected reset after exceeding interval")
	}
	// salt0' = salt0 + max ct + 1 = 10 + 2 + 1 = 13.
	if newSalt != 13 {
		t.Fatalf("new salt0 = %d, want 13", newSalt)
	}
	// After the reset, the first occurrence uses the new salt0.
	et := s.EncryptToken(tok("AAAAAAAA", 16))
	tk := ComputeTokenKey(k, tok("AAAAAAAA", 0).Text)
	if Encrypt(tk, 13) != et.C1 {
		t.Fatal("post-reset encryption did not restart at new salt0")
	}
}

func TestResetNeverReusesSalts(t *testing.T) {
	// The new salt0 jumps past every salt used before the reset, so salts
	// never repeat across resets either.
	k := bbcrypto.RandomBlock()
	s := NewSender(k, bbcrypto.Block{}, ProtocolIII, 0)
	s.SetResetInterval(1)
	used := make(map[uint64]bool)
	for i := 0; i < 200; i++ {
		base := s.salt0 + s.countOf(tok("AAAAAAAA", 0).Text)
		if used[base] || used[base+1] {
			t.Fatalf("salt reuse at iteration %d", i)
		}
		used[base] = true
		used[base+1] = true
		s.EncryptToken(tok("AAAAAAAA", i))
		s.AccountBytes(10)
	}
}

func TestDifferentSessionKeysDifferentCiphertexts(t *testing.T) {
	t1 := tok("AAAAAAAA", 0)
	s1 := NewSender(bbcrypto.Block{1}, bbcrypto.Block{}, ProtocolI, 0)
	s2 := NewSender(bbcrypto.Block{2}, bbcrypto.Block{}, ProtocolI, 0)
	if s1.EncryptToken(t1).C1 == s2.EncryptToken(t1).C1 {
		t.Fatal("different session keys produced equal ciphertexts")
	}
}

func TestCiphertextDistribution(t *testing.T) {
	// Sanity statistical check: the 40-bit ciphertexts of distinct tokens
	// should not collide in a small sample (2^40 space, 2k samples).
	k := bbcrypto.RandomBlock()
	s := NewSender(k, bbcrypto.Block{}, ProtocolI, 0)
	seen := make(map[Ciphertext]bool)
	var text [tokenize.TokenSize]byte
	for i := 0; i < 2000; i++ {
		text[0], text[1] = byte(i), byte(i>>8)
		et := s.EncryptToken(tokenize.Token{Text: text, Offset: i})
		if seen[et.C1] {
			t.Fatal("unexpected 40-bit collision in small sample")
		}
		seen[et.C1] = true
	}
}

func TestProtocolString(t *testing.T) {
	if ProtocolI.String() != "I" || ProtocolII.String() != "II" || ProtocolIII.String() != "III" {
		t.Fatal("protocol names wrong")
	}
	if Protocol(9).String() != "Protocol(9)" {
		t.Fatal("unknown protocol formatting wrong")
	}
}

func TestEncryptTokensBatch(t *testing.T) {
	k := bbcrypto.RandomBlock()
	s := NewSender(k, bbcrypto.Block{}, ProtocolI, 0)
	toks := []tokenize.Token{tok("AAAAAAAA", 0), tok("BBBBBBBB", 8), tok("AAAAAAAA", 16)}
	ets := s.EncryptTokensInto(nil, toks)
	if len(ets) != 3 {
		t.Fatalf("got %d", len(ets))
	}
	// The batch must equal sequential single encryption.
	s2 := NewSender(k, bbcrypto.Block{}, ProtocolI, 0)
	for i, tk := range toks {
		if s2.EncryptToken(tk) != ets[i] {
			t.Fatalf("batch diverges at %d", i)
		}
	}
}

func TestSenderResetMethod(t *testing.T) {
	k := bbcrypto.RandomBlock()
	s := NewSender(k, bbcrypto.Block{}, ProtocolI, 5)
	s.EncryptToken(tok("AAAAAAAA", 0))
	s.Reset(100)
	if s.Salt0() != 100 {
		t.Fatalf("salt0 = %d", s.Salt0())
	}
	et := s.EncryptToken(tok("AAAAAAAA", 8))
	tk := ComputeTokenKey(k, tok("AAAAAAAA", 0).Text)
	if Encrypt(tk, 100) != et.C1 {
		t.Fatal("post-Reset encryption did not restart at announced salt0")
	}
}
