//go:build amd64 && !purego

package bbcrypto

import "testing"

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
}
