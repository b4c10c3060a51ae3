//go:build !amd64 || purego

package bbcrypto

// scheduleAllocFree: the portable Schedule holds a crypto/aes cipher.
func scheduleAllocFree() bool { return false }
