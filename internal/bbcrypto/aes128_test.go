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

var fips197 = []struct{ name, key, pt, ct string }{
	{"FIPS-197 Appendix B", "2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734", "3925841d02dc09fbdc118597196a0b32"},
	{"FIPS-197 Appendix C.1", "000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"},
}

// checkScheduleVectors runs the FIPS-197 known answers through
// Expand+Encrypt; the amd64 test file reruns it with AES-NI switched off.
func checkScheduleVectors(t *testing.T) {
	t.Helper()
	for _, v := range fips197 {
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
		want = stdlibEncrypt(t, key, pt)
		s.Expand(&key)
		s.Encrypt(&got, &pt)
		if got != want {
			t.Fatalf("pair %d: key %x pt %x: got %x, crypto/aes %x", i, key, pt, got, want)
		}
	}
}

// stdlibEncrypt is the crypto/aes answer every kernel form is held to.
func stdlibEncrypt(t *testing.T, key, pt Block) (want Block) {
	t.Helper()
	ref, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	ref.Encrypt(want[:], pt[:])
	return want
}

func pointers(s *[4]Schedule) *[4]*Schedule { return &[4]*Schedule{&s[0], &s[1], &s[2], &s[3]} }

// checkSchedule4Vectors puts each FIPS-197 known answer in each lane of
// Expand4+Encrypt4 in turn, beside three unrelated keys and blocks.
func checkSchedule4Vectors(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	for _, v := range fips197 {
		for lane := 0; lane < 4; lane++ {
			var keys, pts, got [4]Block
			for i := range keys {
				rng.Read(keys[i][:])
				rng.Read(pts[i][:])
			}
			keys[lane], pts[lane] = blockFromHex(t, v.key), blockFromHex(t, v.pt)
			var s [4]Schedule
			Expand4(pointers(&s), &keys)
			Encrypt4(pointers(&s), &got, &pts)
			if want := blockFromHex(t, v.ct); got[lane] != want {
				t.Errorf("%s in lane %d: got %x, want %x", v.name, lane, got[lane], want)
			}
			for i := range got {
				if want := stdlibEncrypt(t, keys[i], pts[i]); got[i] != want {
					t.Errorf("%s in lane %d: lane %d got %x, crypto/aes %x", v.name, lane, i, got[i], want)
				}
			}
		}
	}
}

// checkSchedule4AgainstStdlib compares Expand4+Encrypt4 with crypto/aes on n
// random quadruples, re-expanding the same four Schedule values every time:
// four distinct keys, one key in all four lanes (four schedules of it, then
// one schedule passed four times), and dst == src.
func checkSchedule4AgainstStdlib(t *testing.T, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1974))
	var s [4]Schedule
	for i := 0; i < n; i++ {
		var keys, pts, got [4]Block
		for j := range keys {
			rng.Read(keys[j][:])
			rng.Read(pts[j][:])
		}
		sameKey, inPlace := i%3 == 1, i%3 == 2
		if sameKey {
			keys[1], keys[2], keys[3] = keys[0], keys[0], keys[0]
		}
		Expand4(pointers(&s), &keys)
		if inPlace {
			got = pts
			Encrypt4(pointers(&s), &got, &got)
		} else {
			Encrypt4(pointers(&s), &got, &pts)
		}
		for j := range got {
			if want := stdlibEncrypt(t, keys[j], pts[j]); got[j] != want {
				t.Fatalf("quadruple %d lane %d: key %x pt %x: got %x, crypto/aes %x", i, j, keys[j], pts[j], got[j], want)
			}
		}
		if sameKey {
			var again [4]Block
			Encrypt4(&[4]*Schedule{&s[2], &s[2], &s[2], &s[2]}, &again, &pts)
			if again != got {
				t.Fatalf("quadruple %d: one schedule in four lanes got %x, four schedules of its key %x", i, again, got)
			}
		}
	}
}

func TestScheduleKnownAnswers(t *testing.T) {
	checkScheduleVectors(t)
	checkSchedule4Vectors(t)
}

func TestScheduleMatchesStdlib(t *testing.T) {
	checkScheduleAgainstStdlib(t, 10000)
	checkSchedule4AgainstStdlib(t, 10000)
}

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
	var s4 [4]Schedule
	var keys, pts [4]Block
	ptrs := pointers(&s4)
	allocs = testing.AllocsPerRun(100, func() {
		Expand4(ptrs, &keys)
		Encrypt4(ptrs, &pts, &pts)
		keys[3][0]++
	})
	if scheduleAllocFree() && allocs != 0 {
		t.Fatalf("Expand4+Encrypt4 allocates %.0f objects per call, want 0", allocs)
	}
}
