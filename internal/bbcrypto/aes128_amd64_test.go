//go:build amd64 && !purego

package bbcrypto

import (
	"math/rand"
	"testing"
)

// scheduleAllocFree: the assembly kernel keeps the round keys inline.
func scheduleAllocFree() bool { return useAESNI }

// TestScheduleWithoutAESNI drives the path an amd64 CPU without AES-NI
// takes (crypto/aes behind the same Schedule type).
func TestScheduleWithoutAESNI(t *testing.T) {
	if !useAESNI {
		t.Skip("this CPU already runs the fallback in every other test")
	}
	useAESNI = false
	defer func() { useAESNI = true }()
	checkScheduleVectors(t)
	checkScheduleAgainstStdlib(t, 500)
	checkSchedule4Vectors(t)
	checkSchedule4AgainstStdlib(t, 500)
	checkHash1x4MatchesHash1(t)
}

// TestExpand4MatchesExpand: the four-lane expansion leaves the very bytes
// the one-lane expansion does, in every lane, so a schedule cache may mix
// entries written by either.
func TestExpand4MatchesExpand(t *testing.T) {
	rng := rand.New(rand.NewSource(176))
	var s4 [4]Schedule
	for i := 0; i < 10000; i++ {
		var keys [4]Block
		for j := range keys {
			rng.Read(keys[j][:])
		}
		Expand4(pointers(&s4), &keys)
		for j := range keys {
			var s Schedule
			s.Expand(&keys[j])
			if s4[j] != s {
				t.Fatalf("key %x: lane %d of Expand4 wrote %x, Expand %x", keys[j], j, s4[j].rk, s.rk)
			}
		}
	}
}
