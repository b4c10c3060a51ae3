package dpienc

import (
	"testing"

	"repro/internal/bbcrypto"
	"repro/internal/tokenize"
)

// FuzzEncryptRecoverRoundTrip checks the §3.2/§5 sender invariants on
// arbitrary tokens: every C1 equals the middlebox-side recomputation
// Enc(tk, salt0+i·stride), Protocol III's C2 always yields kSSL through
// RecoverSSLKey, and the 40-bit wire form round-trips.
func FuzzEncryptRecoverRoundTrip(f *testing.F) {
	f.Add([]byte("maliciou"), uint64(0), uint8(1), uint8(3))
	f.Add([]byte("attack!!"), uint64(1)<<39, uint8(3), uint8(7))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, ^uint64(0)-16, uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, text []byte, salt0 uint64, protoByte, reps uint8) {
		protocol := []Protocol{ProtocolI, ProtocolII, ProtocolIII}[int(protoByte)%3]
		k := bbcrypto.DeriveBlock(text, "fuzz detection key")
		kSSL := bbcrypto.DeriveBlock(text, "fuzz ssl key")
		var tok tokenize.Token
		copy(tok.Text[:], text)

		s := NewSender(k, kSSL, protocol, salt0)
		tk := ComputeTokenKey(k, tok.Text)
		stride := uint64(1)
		if protocol == ProtocolIII {
			stride = 2
		}
		n := int(reps%8) + 1
		for i := 0; i < n; i++ {
			et := s.EncryptToken(tok)
			salt := salt0 + uint64(i)*stride
			if want := Encrypt(tk, salt); et.C1 != want {
				t.Fatalf("occurrence %d: C1 = %x, middlebox recomputes %x", i, et.C1, want)
			}
			if got := CiphertextFromUint64(et.C1.Uint64()); got != et.C1 {
				t.Fatalf("ciphertext wire form does not round-trip: %x -> %x", et.C1, got)
			}
			if protocol == ProtocolIII {
				if rec := RecoverSSLKey(tk, salt, et.C2); rec != kSSL {
					t.Fatalf("occurrence %d: RecoverSSLKey = %x, want kSSL = %x", i, rec, kSSL)
				}
			} else if et.C2 != (bbcrypto.Block{}) {
				t.Fatalf("protocol %v emitted a C2", protocol)
			}
		}
	})
}

// FuzzCounterResetSync differentially checks the §3.2 counter-table
// protocol on arbitrary streams with small reset intervals: a model
// middlebox that only follows the documented contract (i-th occurrence
// since the last announced salt0 is encrypted under salt0+i·stride) must
// predict every ciphertext the sender emits. The schedule cache is shrunk
// to a handful of entries so conflicts evict on almost every token, and
// window tokens of the input fill the 64-slot table within a few dozen
// bytes, so growth and — every seed resets at least three times — stale-slot
// takeover run too.
func FuzzCounterResetSync(f *testing.F) {
	f.Add([]byte("abcdefgh abcdefgh abcdefgh"), uint64(7), uint8(3))
	f.Add([]byte("the same token the same token"), uint64(0), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}, uint64(1)<<30, uint8(60))
	// One token 41 times, a reset every fourth: the counter restarts in a
	// slot that is stale, then current, then stale again.
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"), uint64(3), uint8(31))
	// A period of 11 bytes: the same 11 tokens come back in every epoch (a
	// reset every 8 tokens) in a rotating order, so each takes over a slot
	// another left stale.
	f.Add([]byte("hello worldhello worldhello worldhello worldhello worldhello worldhello world"), uint64(1)<<40, uint8(63))
	f.Fuzz(func(t *testing.T, data []byte, salt0 uint64, interval uint8) {
		if len(data) > 2048 {
			return
		}
		k := bbcrypto.DeriveBlock(data, "fuzz k")
		s := NewSender(k, bbcrypto.Block{}, ProtocolII, salt0)
		s.SetResetInterval(int(interval%64) + 1)
		s.ShrinkScheduleCache(1 << (interval % 3))

		counts := make(map[[tokenize.TokenSize]byte]uint64)
		modelSalt0 := salt0
		for _, tok := range tokenize.TokenizeAll(tokenize.Window, data) {
			et := s.EncryptToken(tok)
			want := Encrypt(ComputeTokenKey(k, tok.Text), modelSalt0+counts[tok.Text])
			if et.C1 != want {
				t.Fatalf("sender and model middlebox desynchronized at offset %d", tok.Offset)
			}
			counts[tok.Text]++
			if newSalt0, reset := s.AccountBytes(tokenize.TokenSize); reset {
				if newSalt0 <= modelSalt0 && newSalt0 >= salt0 {
					t.Fatalf("reset reused salt space: new salt0 %d, old %d", newSalt0, modelSalt0)
				}
				modelSalt0 = newSalt0
				clear(counts)
			}
		}
	})
}
