package bbcrypto

import (
	"crypto/aes"
	"encoding/hex"
	"math/rand"
	"testing"
)

func blockFromHex(t *testing.T, s string) Block {
	t.Helper()
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != BlockSize {
		t.Fatalf("bad test vector %q", s)
	}
	var b Block
	copy(b[:], raw)
	return b
}

// checkScheduleVectors runs the FIPS-197 known answers through
// Expand+Encrypt; the amd64 test file reruns it with AES-NI switched off.
func checkScheduleVectors(t *testing.T) {
	t.Helper()
	for _, v := range []struct{ name, key, pt, ct string }{
		{"FIPS-197 Appendix B", "2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734", "3925841d02dc09fbdc118597196a0b32"},
		{"FIPS-197 Appendix C.1", "000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"},
	} {
		key, pt, want := blockFromHex(t, v.key), blockFromHex(t, v.pt), blockFromHex(t, v.ct)
		var s Schedule
		s.Expand(&key)
		var got Block
		s.Encrypt(&got, &pt)
		if got != want {
			t.Errorf("%s: got %x, want %x", v.name, got, want)
		}
		// In place, and through the one-shot helper.
		s.Encrypt(&pt, &pt)
		if pt != want {
			t.Errorf("%s: in-place encryption got %x, want %x", v.name, pt, want)
		}
		if got := EncryptBlock(key, blockFromHex(t, v.pt)); got != want {
			t.Errorf("%s: EncryptBlock got %x, want %x", v.name, got, want)
		}
	}
}

// checkScheduleAgainstStdlib compares Expand+Encrypt with crypto/aes on n
// random key/block pairs, re-expanding one Schedule value every time as the
// DPIEnc schedule cache does when it overwrites an entry.
func checkScheduleAgainstStdlib(t *testing.T, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(197))
	var s Schedule
	for i := 0; i < n; i++ {
		var key, pt, got, want Block
		rng.Read(key[:])
		rng.Read(pt[:])
		ref, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		ref.Encrypt(want[:], pt[:])
		s.Expand(&key)
		s.Encrypt(&got, &pt)
		if got != want {
			t.Fatalf("pair %d: key %x pt %x: got %x, crypto/aes %x", i, key, pt, got, want)
		}
	}
}

func TestScheduleKnownAnswers(t *testing.T) { checkScheduleVectors(t) }

func TestScheduleMatchesStdlib(t *testing.T) { checkScheduleAgainstStdlib(t, 10000) }

// TestScheduleDoesNotAllocate pins the point of the kernel where it exists:
// keying and running AES-128 costs no heap object. The portable build wraps
// crypto/aes and is allowed its allocation.
func TestScheduleDoesNotAllocate(t *testing.T) {
	key, pt := Block{1}, Block{2}
	var s Schedule
	allocs := testing.AllocsPerRun(100, func() {
		s.Expand(&key)
		s.Encrypt(&pt, &pt)
		key[0]++
	})
	if scheduleAllocFree() && allocs != 0 {
		t.Fatalf("Expand+Encrypt allocates %.0f objects per call, want 0", allocs)
	}
}
